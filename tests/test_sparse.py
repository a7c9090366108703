"""Approximate argmax sets, ambiguity structure, and oracle simulation."""

import argparse
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from contractlab.constructions import (
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
)
from contractlab.core import (
    QueryLedger,
    SetFunctionOracle,
    additive_table,
    demand,
    demand_prices_for_contract,
    supply,
    supply_prices_for_contract,
)
from contractlab import cli
from contractlab.core import ContractInstance, derived
from contractlab.perturb import (
    PerturbationBudget,
    epsilon_bound,
    epsilon_bound_reward,
    family_iterator,
)
from contractlab.reals import MpfTable, RealContext, exact
from contractlab.solver import chain_alphas
from contractlab.sparse import (
    ambiguity_intervals,
    approx_best_response,
    approx_demand,
    approx_supply,
    minimal_ambiguous_census,
    random_prices,
    sigma_bound_demand,
    sigma_bound_supply,
    simulate_demand_by_values,
    simulate_family,
    simulate_supply_by_values,
    sparseness_ceiling,
    value_query_experiment,
)

from conftest import (
    brute_exact_approx,
    brute_exact_query,
    brute_exact_utilities,
    instance_from_tables,
    monotone_instance_tables,
    price_vectors,
    real_monotone_instance_tables,
    reference_value_query,
)


@st.composite
def held_tables(draw, max_n=6):
    """(n, oracle) whose table is held as ints: a rational MpfTable over any
    scale, an mpf one over a power of two, or a table of Fractions.  Small
    values on coarse scales, so utilities often tie."""
    n = draw(st.integers(1, max_n))
    ints = draw(st.lists(st.integers(-12, 40), min_size=1 << n, max_size=1 << n))
    how = draw(st.sampled_from(("rational", "mpf", "fractions")))
    if how == "rational":
        scale = draw(st.sampled_from((1, 3, 4, 6, 10)))
        return n, SetFunctionOracle(n, table=MpfTable(ints, scale, True))
    if how == "mpf":
        return n, SetFunctionOracle(n, table=MpfTable(ints, 1 << draw(st.integers(0, 4)), False))
    den = draw(st.sampled_from((1, 2, 3, 8)))
    return n, SetFunctionOracle(n, table=[Fraction(v, den) for v in ints])


@st.composite
def real_numbers(draw):
    """A float, Fraction or mpf near a coarse grid point or anywhere in
    [-1, 10]; a float or mpf is that value rounded to 53 bits."""
    value = draw(st.one_of(
        st.integers(-8, 80).map(lambda k: Fraction(k, 8)),
        st.integers(-3, 30).map(lambda k: Fraction(k, 3)),
        st.floats(-1, 10).map(Fraction),
    ))
    kind = draw(st.sampled_from(("float", "Fraction", "mpf")))
    if kind == "Fraction":
        return value
    return float(value) if kind == "float" else mpmath.mpf(float(value))


class TestExactScoring:
    """Demand, supply and sigma-approximate sets on tables held as ints are
    the exact argmax and exact cut, whatever the prices' and sigma's types."""

    @given(held_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_queries_equal_the_exact_argmax(self, held, data):
        n, oracle = held
        prices = [data.draw(real_numbers()) for _ in range(n)]
        tab = list(oracle.table)
        for kind, query, approx in (("demand", demand, approx_demand),
                                    ("supply", supply, approx_supply)):
            assert query(oracle, prices).mask == brute_exact_query(kind, tab, prices)
            util, _ = brute_exact_utilities(kind, tab, prices)
            sigma = data.draw(st.one_of(
                real_numbers(),
                st.integers(0, (1 << n) - 1).map(lambda m: max(util) - util[m]),  # on a set
            ))
            if sigma < 0:
                with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
                    approx(oracle, prices, sigma)
                continue
            want = brute_exact_approx(kind, tab, prices, sigma)
            assert approx(oracle, prices, sigma).masks() == want

    def test_non_finite_prices_refused_before_any_query(self):
        for base in (build_equal_revenue_submod_f(3), build_equal_revenue_supmod_c(3)):
            (fam,) = [m for m in family_iterator(base) if m.k == 5]
            side = "f" if base.c.weights is not None else "c"
            simulate = simulate_demand_by_values if side == "f" else simulate_supply_by_values
            public, hidden = getattr(base, side), getattr(fam.instance, side)
            for prices in ([math.nan] * 3, [1.0, math.inf, 0.1], [mpmath.mpf("nan"), 1, 1]):
                for approx in (approx_demand, approx_supply):
                    with pytest.raises(ValueError, match="prices must be finite"):
                        approx(public, prices, fam.epsilon)
                with pytest.raises(ValueError, match="prices must be finite"):
                    simulate(public, hidden, prices, fam.epsilon)
            assert public.ledger == hidden.ledger == QueryLedger()


class TestApproxArgmax:
    @given(monotone_instance_tables(max_n=3), st.data(), st.integers(0, 8))
    @settings(max_examples=60)
    def test_members_match_brute_filter(self, tables, data, sig16):
        n, ftab, _ = tables
        prices = data.draw(price_vectors(n))
        sigma = Fraction(sig16, 16)
        d = approx_demand(SetFunctionOracle(n, table=ftab), prices, sigma)
        psum = [sum(prices[i] for i in range(n) if m >> i & 1) for m in range(1 << n)]
        util = [ftab[m] - psum[m] for m in range(1 << n)]
        want = {m for m in range(1 << n) if util[m] >= max(util) - sigma}
        assert set(d.masks()) == want

    @given(monotone_instance_tables(max_n=3), st.data())
    @settings(max_examples=40)
    def test_nesting_in_sigma(self, tables, data):
        n, ftab, _ = tables
        prices = data.draw(price_vectors(n))
        f = SetFunctionOracle(n, table=ftab)
        small = set(approx_demand(f, prices, Fraction(1, 8)).masks())
        large = set(approx_demand(f, prices, Fraction(1, 2)).masks())
        assert small <= large

    def test_exact_demand_always_member(self):
        base = build_equal_revenue_submod_f(4)
        rng = random.Random(5)
        for _ in range(50):
            prices = random_prices(4, rng)
            d = approx_demand(base.f, prices, 1e-9, base.ctx)
            assert demand(base.f, prices, base.ctx).mask in d.masks()

    def test_supply_mirror(self):
        base = build_equal_revenue_supmod_c(3)
        sigma = sigma_bound_supply(base).sigma
        alpha = Fraction(1, 2)
        prices = supply_prices_for_contract(base.f, alpha)
        s = approx_supply(base.c, prices, sigma, base.ctx)
        assert supply(base.c, prices, base.ctx).mask in s.masks()

    def test_wrong_length_prices_rejected(self):
        oracle = SetFunctionOracle(3, table=list(range(8)))
        for approx in (approx_demand, approx_supply):
            for prices in ((1, 2), (1, 2, 3, 4)):
                with pytest.raises(ValueError, match="one price per action"):
                    approx(oracle, prices, Fraction(1, 2))

    @given(
        st.one_of(monotone_instance_tables(max_n=4), real_monotone_instance_tables(53),
                  real_monotone_instance_tables(80)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_best_response_members_match_fraction_filter(self, tables, data):
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab)
        alpha = data.draw(st.sampled_from([Fraction, float]))(
            Fraction(data.draw(st.integers(0, 64)), 64)
        )
        fx, cx = [exact(v) for v in ftab], [exact(v) for v in ctab]
        util = [exact(alpha) * f - c for f, c in zip(fx, cx)]
        if data.draw(st.booleans()):  # sigma exactly at some set's distance
            sigma = max(util) - util[data.draw(st.integers(0, (1 << n) - 1))]
        else:
            sigma = data.draw(st.sampled_from([0, Fraction(1, 7), 0.25, 1]))
        want = [m for m in range(1 << n) if util[m] >= max(util) - exact(sigma)]
        assert approx_best_response(inst, alpha, sigma).masks() == want

    BAD_SIGMAS = (math.nan, math.inf, -math.inf, mpmath.mpf("nan"), mpmath.mpf("inf"),
                  -mpmath.mpf("inf"), -1e-300, Fraction(-1, 7), -1, mpmath.mpf(-0.5))

    @pytest.mark.parametrize("build", [
        lambda: build_equal_revenue_submod_f(4),  # float tables
        lambda: build_equal_revenue_supmod_c(4),  # rational, held as ints
        lambda: build_equal_revenue_submod_f(4, precision_bits=192),  # mpf, held as ints
    ])
    def test_bad_sigma_refused_in_every_representation(self, build):
        # a float table used to give no set for NaN and every set for inf; a
        # rational one raised ValueError and OverflowError
        base = build()
        prices, alpha = (0.5, 0.25, 0.125, 1.0), Fraction(1, 2)
        for sigma in self.BAD_SIGMAS:
            for run in (lambda: approx_demand(base.f, prices, sigma, base.ctx),
                        lambda: approx_supply(base.c, prices, sigma, base.ctx),
                        lambda: approx_best_response(base, alpha, sigma)):
                with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
                    run()
        assert base.f.ledger == base.c.ledger == base.ledger == QueryLedger()
        for zero in (0, -0.0, mpmath.mpf(0)):
            within = approx_demand(base.f, prices, zero, base.ctx).masks()
            assert demand(base.f, prices, base.ctx).mask in within

    def test_best_response_window(self):
        base = build_equal_revenue_supmod_c(3)
        # at alpha_3 = 2/3 the sets S_2, S_3, S_4 tie within any sigma > 0
        br = approx_best_response(base, Fraction(2, 3), Fraction(0))
        assert {2, 3} <= set(br.masks())


class TestSigmaBounds:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize(
        "build",
        [
            build_equal_revenue_submod_f,
            lambda n: build_equal_revenue_submod_f(n, precision_bits=192),
            build_equal_revenue_supmod_c,
        ],
    )
    def test_demand_adjacent_equals_pairwise_min(self, n, build):
        # the pairwise min over l >= 1: the pair from alpha_0 = 0 has no gap
        base = build(n)
        alphas = base.meta["alpha_table"]
        got = sigma_bound_demand(base)
        with base.ctx.workprec():
            full = min(
                (1 / alphas[l] - 1 / alphas[h]) / 2
                for l in range(1, len(alphas))
                for h in range(l + 1, len(alphas))
            )
            assert got.bound == full
            assert got.sigma == full / 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_supply_adjacent_equals_pairwise_min(self, n):
        base = build_equal_revenue_supmod_c(n)
        alphas = base.meta["alpha_table"]
        got = sigma_bound_supply(base)
        full = min(
            (alphas[h] - alphas[l]) / 2
            for l in range(len(alphas))
            for h in range(l + 1, len(alphas))
        )
        assert got.bound == full

    def test_breakpoint_price_indifference_exact_base(self):
        """At supply prices alpha_t * f_i on the exact-rational base, sigma=0
        already collects the adjacent tied chain sets."""
        base = build_equal_revenue_supmod_c(3)
        prices = supply_prices_for_contract(base.f, Fraction(1, 2))  # alpha of S_2
        s = approx_supply(base.c, prices, Fraction(0), base.ctx)
        assert {1, 2} <= set(s.masks())


class TestAmbiguity:
    def test_intervals_and_census_on_base(self):
        base = build_equal_revenue_submod_f(6)
        sigma = sigma_bound_demand(base).sigma
        rng = random.Random(11)
        for _ in range(200):
            prices = random_prices(6, rng)
            d = approx_demand(base.f, prices, sigma, base.ctx)
            assert len(d) <= sparseness_ceiling(6)
            ivs = ambiguity_intervals(d, 6)  # raises on any interval-invariant violation
            for iv in ivs:
                assert 0 <= iv.l <= iv.r
            census = minimal_ambiguous_census(d, 6)
            assert sum(census.values()) == len(d)

    def test_interval_width_bound(self):
        base = build_equal_revenue_submod_f(5)
        sigma = sigma_bound_demand(base).sigma
        rng = random.Random(2)
        for _ in range(100):
            d = approx_demand(base.f, random_prices(5, rng), sigma, base.ctx)
            for iv in ambiguity_intervals(d, 5):
                assert iv.r - iv.l <= 1 << iv.action


class TestSimulation:
    def test_demand_simulation_equals_true_demand(self):
        base = build_equal_revenue_submod_f(4)
        eps = epsilon_bound(base).default_epsilon
        alphas = base.meta["alpha_table"]
        rng = random.Random(9)
        cap = sparseness_ceiling(4)
        for fam in family_iterator(base):
            hidden = fam.instance.f
            price_sets = [demand_prices_for_contract(base.c, a) for a in alphas[1:]]
            price_sets += [random_prices(4, rng) for _ in range(10)]
            for prices in price_sets:
                got, used = simulate_demand_by_values(base.f, hidden, prices, eps, base.ctx)
                assert got == demand(hidden, prices, base.ctx)
                assert used <= cap

    def test_supply_simulation_equals_true_supply(self):
        base = build_equal_revenue_supmod_c(4)
        eps = epsilon_bound(base).default_epsilon
        alphas = base.meta["alpha_table"]
        rng = random.Random(10)
        cap = sparseness_ceiling(4)
        for fam in family_iterator(base):
            hidden = fam.instance.c
            price_sets = [supply_prices_for_contract(base.f, a) for a in alphas if a > 0]
            price_sets += [random_prices(4, rng) for _ in range(10)]
            for prices in price_sets:
                got, used = simulate_supply_by_values(base.c, hidden, prices, eps, base.ctx)
                assert got == supply(hidden, prices, base.ctx)
                assert used <= cap

    def test_simulation_queries_only_candidates(self):
        base = build_equal_revenue_submod_f(4)
        eps = epsilon_bound(base).default_epsilon
        hidden = next(iter(family_iterator(base))).instance.f
        hidden.ledger.reset()
        prices = demand_prices_for_contract(base.c, base.meta["alpha_table"][3])
        _, used = simulate_demand_by_values(base.f, hidden, prices, eps, base.ctx)
        assert hidden.ledger.value_queries == used


def rounded_scores(kind, tab, prices, ctx):
    """The utilities in the table's own arithmetic, as demand and supply
    scored every table before tables held as ints were scored exactly."""
    with ctx.workprec():
        psum = additive_table(list(prices))
        if kind == "demand":
            return [v - p for v, p in zip(tab, psum)]
        return [p - v for v, p in zip(tab, psum)]


class TestSimulationRuns:
    """Every (member, price vector) of a demand-sim or supply-sim run, drawn
    as cli._experiment_sim draws them: the simulation answers the exact
    query and reads as many values as when every table was scored in its
    own arithmetic."""

    @pytest.mark.parametrize("role, n, bits", [
        ("demand", 4, 53), ("demand", 6, 53), ("demand", 4, 192), ("demand", 6, 192),
        ("supply", 4, 53), ("supply", 6, 53),
    ])
    def test_simulation_is_the_exact_query(self, role, n, bits):
        if role == "demand":
            base = build_equal_revenue_submod_f(n, precision_bits=bits)
            side, simulate, query = "f", simulate_demand_by_values, demand
            prices_for, partner = demand_prices_for_contract, base.c
        else:
            base = build_equal_revenue_supmod_c(n)
            side, simulate, query = "c", simulate_supply_by_values, supply
            prices_for, partner = supply_prices_for_contract, base.f
        public, ctx = getattr(base, side), base.ctx
        public_tab, rng, counts = tuple(public.table), random.Random(0), {}
        with ctx.workprec():
            breakpoint_prices = [prices_for(partner, a) for a in chain_alphas(base) if a > 0]
        for fam in family_iterator(base):
            hidden = getattr(fam.instance, side)
            price_sets = breakpoint_prices + [random_prices(n, rng) for _ in range(2)]
            for prices in price_sets:
                got, used = simulate(public, hidden, prices, fam.epsilon, ctx)
                assert got == query(hidden, prices, ctx)
                key = tuple(map(exact, prices))
                if key not in counts:
                    util = rounded_scores(role, public_tab, prices, ctx)
                    with ctx.workprec():
                        cut = max(util) - fam.epsilon
                    counts[key] = sum(u >= cut for u in util)
                assert used == counts[key]


def per_pair_answers(base, shared, own):
    """simulate_family's comparisons one (member, price vector) at a time,
    as the demand-sim and supply-sim runs made them before one scan served
    every member: a simulation and an exact query on each built member."""
    if base.meta["kind"] == "equal_revenue_submod_f":
        side, simulate, query = "f", simulate_demand_by_values, demand
    else:
        side, simulate, query = "c", simulate_supply_by_values, supply
    public = getattr(base, side)
    members = list(family_iterator(base))
    for fam in members:
        hidden = getattr(fam.instance, side)
        for prices in shared:
            got, used = simulate(public, hidden, prices, fam.epsilon, base.ctx)
            yield fam.k, prices, got.mask, used, query(hidden, prices, base.ctx).mask
    for fam in members:
        hidden = getattr(fam.instance, side)
        for prices in own(fam.k):
            got, used = simulate(public, hidden, prices, fam.epsilon, base.ctx)
            yield fam.k, prices, got.mask, used, query(hidden, prices, base.ctx).mask


def drawn_in_member_order(n, count, seed):
    """own(k) for simulate_family: count random price vectors per member,
    drawn on the first call for k and kept, so both sides meet the same."""
    rng, drawn = random.Random(seed), {}

    def own(k):
        if k not in drawn:
            drawn[k] = [random_prices(n, rng) for _ in range(count)]
        return drawn[k]

    return own


def planted_base(role, values, weights, epsilon_max):
    """A base of the role's kind whose table on the perturbed side is values
    (a table of Fractions is held as ints) and whose partner is additive
    over weights, with its budget kept at epsilon_max: no chain is needed."""
    n = len(weights)
    table = SetFunctionOracle(n, table=values)
    partner = SetFunctionOracle(n, weights=weights, declared_class="additive")
    f, c = (table, partner) if role == "demand" else (partner, table)
    kind = "equal_revenue_submod_f" if role == "demand" else "equal_revenue_supmod_c"
    base = ContractInstance(n=n, f=f, c=c, meta={"kind": kind})
    budget = PerturbationBudget(epsilon_max, (epsilon_max,) * 3)
    derived(base, "budget", lambda _: budget)
    return base


class TestSimulateFamily:
    """simulate_family answers every (member, price vector) as the per-pair
    simulation and exact query do."""

    @pytest.mark.parametrize("role, n, bits", [
        ("demand", 4, 53), ("demand", 6, 53), ("demand", 4, 192), ("demand", 6, 192),
        ("supply", 4, 53), ("supply", 6, 53),
    ])
    def test_equals_the_per_pair_loop(self, role, n, bits):
        if role == "demand":
            base = build_equal_revenue_submod_f(n, precision_bits=bits)
            prices_for, partner = demand_prices_for_contract, base.c
        else:
            base = build_equal_revenue_supmod_c(n)
            prices_for, partner = supply_prices_for_contract, base.f
        with base.ctx.workprec():
            shared = [prices_for(partner, a) for a in chain_alphas(base) if a > 0]
        own = drawn_in_member_order(n, 3, seed=n)
        got = list(simulate_family(base, shared, own))
        assert Counter(got) == Counter(per_pair_answers(base, shared, own))
        # every member meets the price vectors where it is the base's argmax
        public = base.f if role == "demand" else base.c
        query = demand if role == "demand" else supply
        argmaxes = {query(public, prices, base.ctx).mask for prices in shared}
        assert argmaxes & {k for k, *_ in got}

    # ties at the top, among equal values (lower mask wins) and at the base's
    # argmax itself: values and prices on a coarse dyadic grid, so float
    # arithmetic is exact, and one float pair whose utilities round together
    @pytest.mark.parametrize("role, values, weights, epsilon_max, planted", [
        ("demand", [0, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1], 0.5,
         [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 0.5, 2.0), (0.0, 0.0, 0.0)]),
        ("demand", [0, 2, 2, 3, 2, 3, 3, 3], [1, 2, 3], 1.0,
         [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 1.0, 0.0), (0.5, 1.0, 1.0)]),
        ("supply", [0, 1, 1, 1, 1, 1, 1, 2], [1, 1, 1], 0.5,
         [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0)]),
        ("supply", [0.0, 0.75, 0.0, 1.0], [1, 1], 1.0,
         [(2.0 ** 54, 0.0), (2.0 ** 54, 2.0 ** 54), (1.0, 0.0)]),
    ])
    @pytest.mark.parametrize("exact_table", [False, True])
    def test_planted_ties(self, role, values, weights, epsilon_max, planted, exact_table):
        if exact_table:  # held as ints; a Fraction epsilon widens the members' scale
            values = [Fraction(v) for v in values]
            epsilon_max = Fraction(epsilon_max) * Fraction(2, 3)
        else:
            values = [float(v) for v in values]
        base = planted_base(role, values, weights, epsilon_max)
        own = drawn_in_member_order(len(weights), 4, seed=1)
        got = list(simulate_family(base, planted, own))
        assert Counter(got) == Counter(per_pair_answers(base, planted, own))
        assert all(g == w for _, _, g, _, w in got)

    @pytest.mark.parametrize("role, values, weights, prices, answers", [
        # c({1}) = 0.75 and c({1,2}) = 1 at p = (2^54, 0): both utilities
        # round to 2^54 in floats, yet exactly {1} is ahead by 1/4 and wins.
        # Member 3's discount to 0.5 puts it 1/4 ahead of {1}, inside
        # D^eps(p) = {1, 3}, so the simulation finds it too
        ("supply", [0.0, 0.75, 0.0, 1.0], [1, 1], (2.0 ** 54, 0.0),
         [(2, 1, 2, 1), (3, 3, 2, 3)]),
        # member 1's bonus makes f({1}) = f({2}) = 1.5 at equal prices: equal
        # utility and value, and the lower mask, k itself, wins
        ("demand", [0.0, 1.0, 1.5, 2.0], [1, 1], (1.0, 1.0),
         [(1, 1, 4, 1), (2, 2, 4, 2), (3, 3, 4, 3)]),
    ])
    def test_answers_at_a_planted_tie(self, role, values, weights, prices, answers):
        base = planted_base(role, values, weights, 1.0)
        got = list(simulate_family(base, [prices], lambda k: []))
        assert got == [(k, prices, g, u, w) for k, g, u, w in answers]
        assert got == list(per_pair_answers(base, [prices], lambda k: []))

    def test_float_entries_in_a_held_table(self):
        # a float epsilon turns a Fraction entry float: the member's table is
        # a tuple, its exact form still the held ints with entry k replaced
        base = planted_base("supply", [Fraction(v) for v in (0, 1, 1, 3)], [1, 1], 0.5)
        shared = [(1.0, 1.0), (2.0, 0.5), (0.25, 3.0)]
        own = drawn_in_member_order(2, 3, seed=2)
        got = list(simulate_family(base, shared, own))
        assert Counter(got) == Counter(per_pair_answers(base, shared, own))
        assert {type(fam.instance.c.table) for fam in family_iterator(base)} == {tuple}

    @pytest.mark.parametrize("role, n", [("demand", 4), ("demand", 6), ("supply", 4), ("supply", 6)])
    def test_run_equals_the_per_pair_run(self, role, n):
        """The CLI run's comparisons, agreement and max value queries, with
        its random prices drawn in member order, equal the per-pair loop's."""
        args = argparse.Namespace(n=n, trials=4, seed=7)
        out, ok = cli.RUNNERS[f"{role}-sim"](args)
        if role == "demand":
            base = build_equal_revenue_submod_f(n)
            prices_for, partner = demand_prices_for_contract, base.c
        else:
            base = build_equal_revenue_supmod_c(n)
            prices_for, partner = supply_prices_for_contract, base.f
        with base.ctx.workprec():
            shared = [prices_for(partner, a) for a in chain_alphas(base) if a > 0]
        own = drawn_in_member_order(n, 4, seed=7)
        answers = list(per_pair_answers(base, shared, own))
        assert out["comparisons"] == len(answers)
        assert out["agreement"] == sum(g == w for _, _, g, _, w in answers) / len(answers)
        assert out["max_value_queries"] == max(u for _, _, _, u, _ in answers)
        assert ok


# the wide scale of a supermodular cost: ints over lcm(1, ..., 1023), 1,478 bits
SUPMOD_C_SCALE = build_equal_revenue_supmod_c(10).c.scaled()[1]


def represented(how, values):
    """The exact values in one table representation: floats, mpfs held as
    ints over 2^190, or rationals held as ints over their LCM or over the
    supermodular cost's wide scale."""
    if how == "float":
        return [float(v) for v in values]
    if how == "rational":
        return list(values)
    scale = 1 << 190 if how == "mpf192" else SUPMOD_C_SCALE
    return MpfTable([round(Fraction(v) * scale) for v in values], scale, how != "mpf192")


@st.composite
def near_tie_tables(draw, max_n=4):
    """(role, n, values, prices, ulp): a table in one of four
    representations with sets planted within a few ulps of the exact top
    utility f - p ("demand" role) or p - c ("supply"), ulp being the float
    spacing at the magnitude of the prices and values; some planted ties
    are exact."""
    role = draw(st.sampled_from(("demand", "supply")))
    how = draw(st.sampled_from(("float", "mpf192", "rational", "supmod_c")))
    n = draw(st.integers(1, max_n))
    size, den = 1 << n, draw(st.sampled_from((1, 3, 16)))
    ints = draw(st.lists(st.integers(0, 320), min_size=size, max_size=size))
    values = [exact(v) for v in SetFunctionOracle(
        n, table=represented(how, [Fraction(v, den) for v in ints])).table]
    prices = [draw(real_numbers().filter(lambda p: p > 0)) for _ in range(n)]
    util, _ = brute_exact_utilities(role, values, prices)
    psum = [sum(exact(prices[i]) for i in range(n) if m >> i & 1) for m in range(size)]
    ulp = Fraction(math.ulp(float(sum(map(exact, prices)) + max(values))))
    for m in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4)):
        u = max(util) + draw(st.integers(-3, 3)) * ulp
        values[m] = psum[m] + u if role == "demand" else psum[m] - u
    return role, n, represented(how, values), prices, ulp


def simulation_spec(kind, public_tab, hidden_tab, prices, eps):
    """(mask, value queries) of simulate_*_by_values, from the exact
    utilities: the hidden argmax over the exact D^eps(prices) of the public
    table, ties to the higher hidden value, then the lower mask."""
    members = brute_exact_approx(kind, public_tab, prices, eps)
    util, vals = brute_exact_utilities(kind, hidden_tab, prices)
    return max(members, key=lambda m: (util[m], vals[m], -m)), len(members)


class TestExactInEveryRepresentation:
    """Every demand, supply, D^sigma and simulated answer is the exact one
    on float, 192-bit mpf, rational and wide rational tables, at planted
    ties within a few float ulps of the top."""

    @given(near_tie_tables(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_answers_are_exact(self, drawn, data):
        role, n, values, prices, ulp = drawn
        oracle = SetFunctionOracle(n, table=values)
        tab = list(oracle.table)
        for kind, query, approx in (("demand", demand, approx_demand),
                                    ("supply", supply, approx_supply)):
            assert query(oracle, prices).mask == brute_exact_query(kind, tab, prices)
            util, _ = brute_exact_utilities(kind, tab, prices)
            sigma = data.draw(st.one_of(
                st.integers(0, 4).map(lambda j: j * ulp),
                st.integers(0, (1 << n) - 1).map(lambda m: max(util) - util[m]),  # on a set
            ))
            sigma = data.draw(st.sampled_from((sigma, float(sigma))))
            assert approx(oracle, prices, sigma).masks() == brute_exact_approx(
                kind, tab, prices, sigma)
        # a family on the table: exact per-pair simulations and simulate_family
        eps_max = data.draw(st.sampled_from((4 * ulp, 64 * ulp, Fraction(1, 2))))
        if not oracle.scaled()[2]:  # a float or mpf table takes a float epsilon
            eps_max = float(eps_max)
        base = planted_base(role, values, [1] * n, eps_max)
        side = "f" if role == "demand" else "c"
        simulate = simulate_demand_by_values if role == "demand" else simulate_supply_by_values
        public = getattr(base, side)
        members = {fam.k: list(getattr(fam.instance, side).table) for fam in family_iterator(base)}
        eps = epsilon_bound(base).default_epsilon
        for fam in family_iterator(base):
            got, used = simulate(public, getattr(fam.instance, side), prices, fam.epsilon)
            assert (got.mask, used) == simulation_spec(role, tab, members[fam.k], prices, eps)
        answers = list(simulate_family(base, [prices], lambda k: [prices]))
        assert len(answers) == 2 * len(members)
        for k, _, got, used, want in answers:
            assert want == brute_exact_query(role, members[k], prices)
            assert (got, used) == simulation_spec(role, tab, members[k], prices, eps)


    @pytest.mark.parametrize("kind", ["demand", "supply"])
    def test_every_price_sum_rounding_one_way(self, kind):
        # n = 16: the last price 1 (-1 for demand) and the others x =
        # 2^-53 + 2^-70 of its sign.  additive_table adds the full set's
        # prices from the last down, and each partial sum, of magnitude just
        # above 1, rounds away from 0 by 2^-53 - 2^-70, nearly half an ulp:
        # its float sum is off by 15 of those, the float top is the full set
        # T, and W = {16}, whose entry is 15 x + 2^-90, is better by 2^-90
        # exactly.  W's float utility is 14 * 2^-53 below T's, a third of
        # _near_top's bound B: a bound 3.08 times smaller drops W (the cut
        # itself rounds onto the floats' 2^-52 grid near 1).
        n = 16
        u, x = 2.0**-53, 2.0**-53 + 2.0**-70
        sign = -1 if kind == "demand" else 1
        prices = [sign * x] * (n - 1) + [float(sign)]
        entry = (n - 1) * x + 2.0**-90
        assert entry - (n - 1) * x == 2.0**-90  # the entry is exact
        table = [0.0] * (1 << n)
        w, full = 1 << (n - 1), (1 << n) - 1
        table[w] = -sign * entry
        oracle = SetFunctionOracle(n, table=table)
        psum = additive_table(prices)
        assert psum[full] == sign * (1 + 2 * (n - 1) * u)  # every step rounded one way
        pairs = zip(table, psum)
        floats = [v - p for v, p in pairs] if kind == "demand" else [p - v for v, p in pairs]
        assert max(floats) == floats[full] and floats[full] - floats[w] == 14 * u
        bound = (n + 4) * 2.0**-52 * (sum(map(abs, prices)) + entry)
        assert 0.34 < 14 * u / bound < 0.35
        query, approx = (demand, approx_demand) if kind == "demand" else (supply, approx_supply)
        assert query(oracle, prices).mask == w
        assert approx(oracle, prices, 0).masks() == [w]
        assert approx(oracle, prices, 2.0**-90).masks() == [w, full]


class TestRandomPrices:
    def test_seeded_determinism(self):
        a = random_prices(5, random.Random(42))
        b = random_prices(5, random.Random(42))
        assert a == b
        assert all(2.0 ** -5 <= p <= 2.0 ** 5 for p in a)

    def test_snap_to_breakpoint_prices(self):
        # the breakpoint price vector c_i / alpha the experiments mix in
        c = SetFunctionOracle(3, weights=[1, 2, 4], declared_class="additive")
        assert demand_prices_for_contract(c, Fraction(1, 2)) == (2, 4, 8)


class TestValueQueryExperiment:
    def test_scan_statistics(self):
        base = build_equal_revenue_submod_f(5)
        stats = value_query_experiment(base, trials=400, seed=3)
        assert stats.ok
        assert stats.identified_all
        assert stats.exact_expectation == 16.0
        assert stats.lower_bound == 8.0
        assert abs(stats.mean_queries - 16.0) <= 3 * stats.stderr + 1e-12

    def test_seeded_reproducibility(self):
        base = build_equal_revenue_submod_f(4)
        a = value_query_experiment(base, trials=100, seed=5)
        b = value_query_experiment(base, trials=100, seed=5)
        assert a == b and a.as_dict()["strategy"] == "scan"

    @pytest.mark.parametrize("trials", [0, -3, 2.5, "10", None, True])
    def test_trials_refused_before_the_budget(self, trials):
        base = build_equal_revenue_submod_f(4)
        with pytest.raises(ValueError, match="trials"):
            value_query_experiment(base, trials=trials)
        assert "budget" not in base.kept

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_per_trial_scan(self, n):
        base = build_equal_revenue_submod_f(n)
        for seed in range(12):
            trials = 1 + seed * 17
            assert value_query_experiment(base, trials, seed) == reference_value_query(
                base, trials, seed)

    def test_equals_the_per_trial_scan_in_extended_precision(self):
        base = build_equal_revenue_submod_f(11, precision_bits=360)
        for seed in range(3):
            got = value_query_experiment(base, 40, seed)
            assert got == reference_value_query(base, 40, seed) and got.identified_all

    def test_entries_wider_than_the_context_stop_the_scan(self):
        """Kept budget of a 120-bit base, then a 60-bit context: adding 0
        rounds f(S_1), so every scan stops at t = 1 and k = 1 alone is found."""
        base = build_equal_revenue_submod_f(5, precision_bits=120)
        epsilon_bound(base)
        base.ctx = RealContext(bits=60)
        for seed in range(4):
            got = value_query_experiment(base, 50, seed)
            assert got == reference_value_query(base, 50, seed)
            assert got.mean_queries == 1.0 and not got.identified_all

    def test_reads_the_kept_reward_budget(self):
        base = build_equal_revenue_submod_f(4)
        value_query_experiment(base, trials=10, seed=0)
        assert base.kept["budget"] == epsilon_bound_reward(base)
        cost = build_equal_revenue_supmod_c(3)
        with pytest.raises(ValueError, match="reward-bonus base"):
            value_query_experiment(cost, trials=10)
        assert "budget" not in cost.kept  # refused before the budget is computed
