"""Ground-set primitives, oracles, and query semantics."""

import contextlib
import io
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from contractlab.core import (
    ActionSet,
    ContractInstance,
    DegenerateContractError,
    LowerHull,
    QueryLedger,
    SetFunctionOracle,
    additive_table,
    best_response,
    demand,
    demand_prices_for_contract,
    lower_hull,
    supply,
    supply_prices_for_contract,
    value,
)
from contractlab.cli import main
from contractlab.constructions import (
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
    verify_structure,
)
from contractlab import core, reals, solver
from contractlab.perturb import perturbation_budget
from contractlab.serialize import load_instance, save_instance
from contractlab.reals import RealContext, exact
from mpmath import libmp

from conftest import (
    brute_best_response,
    brute_demand,
    brute_supply,
    degenerate_hull_tables,
    instance_from_tables,
    mixed_monotone_instance_tables,
    monotone_instance_tables,
    price_vectors,
    real_monotone_instance_tables,
)


class TestActionSet:
    def test_mask_equals_index(self):
        s = ActionSet(4, 0b1011)
        assert s.mask == 0b1011
        assert s.members() == (1, 2, 4)
        assert 1 in s and 2 in s and 3 not in s and 4 in s

    def test_round_trip_members(self):
        s = ActionSet(5, 0b10010)
        assert s.members() == (2, 5)
        assert ActionSet(5, sum(1 << (i - 1) for i in s.members())) == s

    @given(st.integers(1, 10), st.data())
    def test_subset_index_bijection(self, n, data):
        t = data.draw(st.integers(0, (1 << n) - 1))
        s = ActionSet(n, t)
        assert s.mask == t
        assert sum(1 << (i - 1) for i in s.members()) == t

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            ActionSet(3, 8)
        with pytest.raises(ValueError):
            ActionSet(0, 0)


class TestOracle:
    def test_table_weights_agree(self):
        w = [1, 2, 4]
        by_weights = SetFunctionOracle(3, weights=w, declared_class="additive")
        by_table = SetFunctionOracle(3, table=list(range(8)))
        for m in range(8):
            assert by_weights.table[m] == by_table.table[m]

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_additive_table_is_subset_sum(self, w):
        tab = additive_table(w)
        for m in range(1 << len(w)):
            assert tab[m] == sum(w[i] for i in range(len(w)) if m >> i & 1)

    @staticmethod
    def _lowest_bit_recurrence(weights):
        """The table by one addition per mask onto the mask less its lowest
        action, the recurrence additive_table's doubling replaced."""
        table = [0] * (1 << len(weights))
        for mask in range(1, len(table)):
            low = mask & -mask
            table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
        return table

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["float", "mpf80", "int", "Fraction"]),
        draws=st.lists(
            st.tuples(st.integers(-(1 << 90), 1 << 90), st.integers(-60, 60)),
            min_size=1, max_size=10,
        ),
    )
    def test_additive_table_adds_in_the_recurrence_order(self, kind, draws):
        # weights of mixed magnitudes, so float and mpf sums round
        with mpmath.workprec(80):
            if kind == "float":
                weights = [math.ldexp(float(m >> 40), e) for m, e in draws]
            elif kind == "mpf80":
                weights = [mpmath.ldexp(mpmath.mpf(m), e) for m, e in draws]
            elif kind == "int":
                weights = [m for m, _ in draws]
            else:
                weights = [Fraction(m, 1 << (e + 60)) for m, e in draws]
            got = additive_table(weights)
            want = self._lowest_bit_recurrence(weights)

        def key(v):
            if isinstance(v, mpmath.mpf):
                return v._mpf_
            return v.hex() if isinstance(v, float) else v

        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b) and key(a) == key(b)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            SetFunctionOracle(2, table=[0, 1, 2, 3], weights=[1, 2])
        with pytest.raises(ValueError):
            SetFunctionOracle(2)

    def test_value_counts_queries(self):
        f = SetFunctionOracle(3, table=list(range(8)))
        assert f.ledger.value_queries == 0
        value(f, ActionSet(3, 5))
        value(f, ActionSet(3, 2))
        assert f.ledger.value_queries == 2
        assert f.ledger == QueryLedger(value_queries=2)

    def test_ledger_reset(self):
        led = QueryLedger()
        f = SetFunctionOracle(2, table=[0, 1, 1, 2], ledger=led)
        value(f, ActionSet(2, 3))
        assert led == QueryLedger(value_queries=1)
        led.reset()
        assert led == QueryLedger()


class TestMpfTable:
    """A table held as ints over one scale, read through reals.MpfTable: an
    extended-precision table as the loader and the constructions hand it
    over, ints over one power of two, and a rational one, ints over any
    positive scale."""

    @staticmethod
    def constructed_and_loaded(tmp_path, n=6, bits=192):
        inst = build_equal_revenue_submod_f(n, precision_bits=bits)
        path = tmp_path / "chain.json"
        save_instance(inst, str(path))
        return inst, load_instance(str(path))

    def test_view_equals_its_materialized_mpfs(self, tmp_path):
        for inst in self.constructed_and_loaded(tmp_path):
            tab = inst.f.value_table()
            assert isinstance(tab, reals.MpfTable) and tab is inst.f.table
            mpfs = tuple(tab)
            assert tab == mpfs and mpfs == tab
            assert not tab != mpfs and not mpfs != tab
            assert tab != list(mpfs)  # as a tuple of them is not a list
            changed = mpfs[:-1] + (mpfs[-1] * 2,)
            assert tab != changed and changed != tab and tab != mpfs[:-1]

    def test_len_iteration_and_indexing_agree(self, tmp_path):
        for inst in self.constructed_and_loaded(tmp_path):
            tab = inst.f.value_table()
            ints, scale, rational = inst.f.scaled()
            assert ints is tab.ints and scale == tab.scale and not rational
            # the ints are the only copy: no mpf is kept
            assert not hasattr(tab, "__dict__") and all(type(v) is int for v in ints)
            assert len(tab) == len(list(tab)) == 64
            keys = [v._mpf_ for v in tab]
            assert keys == [tab[m]._mpf_ for m in range(64)] == [tab[m - 64]._mpf_ for m in range(64)]
            assert keys == [reals.mpf_exact(v, 1 - scale.bit_length())._mpf_ for v in ints]
            # on the scale core._scaled_ints gives the same mpfs
            assert (list(ints), scale, False) == core._scaled_ints(tuple(tab))

    def test_scaled_needs_a_positive_scale_a_power_of_two_for_mpfs(self):
        for scaled in (([1, 2], 3, False), ([1, 2], 0, False), ([1, 2], 0, True), ([1, 2], -3, True)):
            with pytest.raises(ValueError):
                SetFunctionOracle(1, scaled=scaled)
        oracle = SetFunctionOracle(1, scaled=([0, 12], 8, False))
        assert [v._mpf_ for v in oracle.value_table()] == [libmp.fzero, (0, 3, -1, 2)]
        oracle = SetFunctionOracle(1, scaled=([0, 12], 9, True))
        assert list(oracle.value_table()) == [0, Fraction(4, 3)]

    def test_exactly_one_of_table_weights_scaled(self):
        for kwargs in (
            {"table": [0, 1], "scaled": ([0, 1], 1, True)},
            {"weights": [1], "scaled": ([0, 1], 1, True)},
            {"table": [0, 1], "weights": [1]},
            {},
        ):
            with pytest.raises(ValueError, match="exactly one"):
                SetFunctionOracle(1, **kwargs)

    def test_rational_view_equals_its_fractions(self):
        ints, scale = [0, 3, 5, 12], 6
        oracle = SetFunctionOracle(2, scaled=(ints, scale, True))
        tab = oracle.value_table()
        fracs = tuple(Fraction(v, scale) for v in ints)
        assert isinstance(tab, reals.MpfTable) and tab is oracle.table
        assert oracle.scaled() == (tab.ints, scale, True) and tab.ints == tuple(ints)
        assert tab == fracs and fracs == tab and not tab != fracs and not fracs != tab
        assert tab != list(fracs)  # as a tuple of them is not a list
        changed = fracs[:-1] + (fracs[-1] * 2,)
        assert tab != changed and changed != tab and tab != fracs[:-1]
        # the same value and type as Fraction(ints[m], scale), however read
        for got in (list(tab), [tab[m] for m in range(4)], [tab[m - 4] for m in range(4)]):
            assert got == list(fracs) and all(type(v) is Fraction for v in got)
        assert len(tab) == len(list(tab)) == 4

    def test_loaded_solve_converts_no_entry(self, tmp_path, monkeypatch):
        inst = build_equal_revenue_submod_f(12, precision_bits=360)
        path = tmp_path / "n12.json"
        save_instance(inst, str(path))
        tau, real_ratio = inst.ctx.maximizer_tolerance, reals.ratio

        def no_entry(x):
            # tau is no entry, nor are the ints 0 and 1 the chain bisects at
            if isinstance(x, mpmath.mpf) and x != tau:
                raise AssertionError(f"table entry {x} converted")
            return real_ratio(x)

        def no_table(tab):
            raise AssertionError("table converted")

        for module in (reals, core, solver):
            monkeypatch.setattr(module, "ratio", no_entry)
        monkeypatch.setattr(core, "_scaled_ints", no_table)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["solve", "--instance", str(path)]) == 0
        report = json.loads(buf.getvalue())
        assert report["co_optimal_breakpoints"] == list(range(4096))

    def test_replaced_table_rebuilds_hull_and_budget(self):
        inst = build_equal_revenue_submod_f(4, precision_bits=192)
        hull, budget = lower_hull(inst), perturbation_budget(inst)
        assert lower_hull(inst) is hull and perturbation_budget(inst) is budget
        inst.f.table = tuple(inst.f.table)  # the same values, as a tuple
        rebuilt, again = lower_hull(inst), perturbation_budget(inst)
        assert rebuilt is not hull and rebuilt.f_table is inst.f.table
        assert again is not budget and again.f_table is inst.f.table
        assert (rebuilt.vertices, rebuilt.nums, rebuilt.dens) == (hull.vertices, hull.nums, hull.dens)
        assert again.components == budget.components
        # changed entries are read: c doubled widens every c gap
        inst.c.table = tuple(2 * v for v in inst.c.table)
        assert lower_hull(inst).nums == [2 * d for d in rebuilt.nums]
        assert perturbation_budget(inst).components[1] > again.components[1]


class TestQueries:
    @given(monotone_instance_tables(), st.data())
    @settings(max_examples=60)
    def test_demand_matches_brute_force(self, tables, data):
        n, ftab, _ = tables
        prices = data.draw(price_vectors(n))
        f = SetFunctionOracle(n, table=ftab)
        got = demand(f, prices)
        assert got.mask == brute_demand(ftab, prices)
        assert f.ledger.demand_queries == 1

    @given(monotone_instance_tables(), st.data())
    @settings(max_examples=60)
    def test_supply_matches_brute_force(self, tables, data):
        n, _, ctab = tables
        prices = data.draw(price_vectors(n))
        c = SetFunctionOracle(n, table=ctab)
        got = supply(c, prices)
        assert got.mask == brute_supply(ctab, prices)
        assert c.ledger.supply_queries == 1

    @given(monotone_instance_tables(), st.integers(0, 31))
    @settings(max_examples=60)
    def test_best_response_matches_brute_force(self, tables, num):
        n, ftab, ctab = tables
        alpha = Fraction(num, 32)
        inst = ContractInstance(
            n=n,
            f=SetFunctionOracle(n, table=ftab),
            c=SetFunctionOracle(n, table=ctab),
        )
        got = best_response(inst, alpha)
        assert got.mask == brute_best_response(ftab, ctab, alpha)
        assert inst.ledger.best_response_queries == 1

    def test_wrong_length_prices_rejected(self):
        f = SetFunctionOracle(3, table=list(range(8)))
        for prices in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="one price per action"):
                demand(f, prices)
            with pytest.raises(ValueError, match="one price per action"):
                supply(f, prices)
        assert f.ledger == QueryLedger()

    def test_best_response_tie_prefers_higher_f(self):
        # two sets with equal utility at alpha = 1/2: {1} (f=2,c=1) and {2} (f=4,c=2)
        inst = ContractInstance(
            n=2,
            f=SetFunctionOracle(2, table=[Fraction(0), Fraction(2), Fraction(4), Fraction(5)]),
            c=SetFunctionOracle(2, table=[Fraction(0), Fraction(1), Fraction(2), Fraction(4)]),
        )
        assert best_response(inst, Fraction(1, 2)).mask == 0b10

    def test_documented_best_response_example(self):
        # additive f = (2, 3), supermodular-ish c: at alpha = 0.8 the agent
        # takes the singleton {2}: 0.8*3 - 1 = 1.4 beats 0.8*5 - 2.7 = 1.3
        inst = ContractInstance(
            n=2,
            f=SetFunctionOracle(2, weights=[Fraction(2), Fraction(3)]),
            c=SetFunctionOracle(
                2, table=[Fraction(0), Fraction(1), Fraction(1), Fraction(27, 10)]
            ),
        )
        assert best_response(inst, Fraction(4, 5)).members() == (2,)

    @given(monotone_instance_tables(max_n=3), st.integers(1, 31))
    @settings(max_examples=40)
    def test_demand_at_scaled_costs_equals_best_response(self, tables, num):
        """With additive costs, demand at prices c_i/alpha is the best response."""
        n, ftab, _ = tables
        alpha = Fraction(num, 32)
        weights = [Fraction(i + 1, 3) for i in range(n)]
        c = SetFunctionOracle(n, weights=weights, declared_class="additive")
        inst = ContractInstance(n=n, f=SetFunctionOracle(n, table=ftab), c=c)
        prices = demand_prices_for_contract(c, alpha)
        assert demand(inst.f, prices) == best_response(inst, alpha)

    def test_zero_alpha_prices_degenerate(self):
        c = SetFunctionOracle(2, weights=[1, 2], declared_class="additive")
        with pytest.raises(DegenerateContractError):
            demand_prices_for_contract(c, 0)

    @given(monotone_instance_tables(max_n=3), st.integers(0, 31))
    @settings(max_examples=40)
    def test_supply_at_scaled_rewards_equals_best_response(self, tables, num):
        """With additive rewards, supply at prices alpha*f_i is the best response."""
        n, _, ctab = tables
        alpha = Fraction(num, 32)
        weights = [Fraction(2 * i + 1, 2) for i in range(n)]
        f = SetFunctionOracle(n, weights=weights, declared_class="additive")
        inst = ContractInstance(n=n, f=f, c=SetFunctionOracle(n, table=ctab))
        prices = supply_prices_for_contract(f, alpha)
        got = supply(inst.c, prices)
        want = best_response(inst, alpha)
        # tie rules differ (higher c vs higher f); utilities must agree exactly
        assert alpha * f.table[got.mask] - ctab[got.mask] == (
            alpha * f.table[want.mask] - ctab[want.mask]
        )

    def test_instance_validation(self):
        f = SetFunctionOracle(2, table=[0, 1, 1, 2])
        c3 = SetFunctionOracle(3, table=[0] * 8)
        with pytest.raises(ValueError):
            ContractInstance(n=2, f=f, c=c3)


def _query_alphas(ftab, ctab):
    """Every slope between two points of the cloud (so every hull slope,
    hit exactly), a point just off each side, and alphas below 0, at 0 and
    above the last slope."""
    fx, cx = [exact(v) for v in ftab], [exact(v) for v in ctab]
    slopes = {
        (cx[b] - cx[a]) / (fx[b] - fx[a])
        for a in range(len(fx))
        for b in range(len(fx))
        if fx[b] > fx[a]
    }
    tiny = Fraction(1, 1 << 70)
    top = max(slopes, default=Fraction(0))
    alphas = [Fraction(-3), Fraction(-1, 7), 0, top + 1, top + tiny]
    for a in sorted(slopes):
        alphas += [a, a - tiny, a + tiny]
    return alphas


class TestHullBestResponse:
    """best_response reads one lower hull per instance; the brute force
    scores every mask on the entries' exact values."""

    @given(
        st.one_of(
            mixed_monotone_instance_tables(max_n=3),
            real_monotone_instance_tables(53, max_n=3),
            real_monotone_instance_tables(192, max_n=3),
            degenerate_hull_tables(max_n=3),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_on_and_off_every_slope(self, tables):
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab)
        hull = lower_hull(inst)
        for k, alpha in enumerate(_query_alphas(ftab, ctab), 1):
            assert best_response(inst, alpha).mask == brute_best_response(ftab, ctab, alpha)
            assert inst.ledger.best_response_queries == k  # one charge per call
        assert inst.hull is hull  # built once, kept on the instance

    @given(real_monotone_instance_tables(80, max_n=3), st.integers(-8, 40))
    @settings(max_examples=60, deadline=None)
    def test_rounded_alphas(self, tables, num):
        # a float or mpf alpha is located by its exact value too
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab, bits=80)
        for alpha in (num / 32, RealContext(80).make(Fraction(num, 31))):
            assert best_response(inst, alpha).mask == brute_best_response(ftab, ctab, alpha)

    def test_duplicate_and_collinear_points(self):
        # masks 1 and 2 share (1, 1); mask 3 = (2, 2) is collinear with 0 and
        # the pair, so at alpha 1 all four tie and the highest f wins
        inst = instance_from_tables([0, 1, 1, 2], [0, 1, 1, 2])
        assert [best_response(inst, a).mask for a in (0, 1, 2)] == [0, 3, 3]
        assert best_response(inst, Fraction(-1)).mask == 0
        inst = instance_from_tables([0, 1, 1, 2], [0, 1, 1, 3])
        assert [best_response(inst, a).mask for a in (1, 2, 5)] == [1, 3, 3]

    def test_hull_follows_replaced_tables(self):
        inst = instance_from_tables([0, 2, 4, 5], [0, 1, 2, 4])
        assert best_response(inst, Fraction(1, 2)).mask == 0b10
        first = inst.hull
        inst.f = SetFunctionOracle(2, table=[0, 2, 3, 9])
        assert best_response(inst, Fraction(1, 2)).mask == 0b11
        assert inst.hull is not first
        second = inst.hull
        inst.c = SetFunctionOracle(2, table=[0, 1, 2, 9])
        assert best_response(inst, Fraction(1, 2)).mask == 0b01
        assert inst.hull is not second

    def test_tables_are_immutable(self):
        inst = instance_from_tables([0, 2, 4, 5], [0, 1, 2, 4])
        additive = SetFunctionOracle(2, weights=[1, 2])
        for oracle in (inst.f, inst.c, additive):
            with pytest.raises(TypeError):
                oracle.value_table()[1] = 7


class TestHullFrame:
    """The hull keeps the oracles' scaled frame: raw int differences per
    edge, the two scales, and the scaled f of its first vertex."""

    @given(
        st.one_of(
            real_monotone_instance_tables(53),
            real_monotone_instance_tables(192),
            mixed_monotone_instance_tables(),
            degenerate_hull_tables(),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_edges_are_the_exact_slopes(self, tables):
        n, ftab, ctab = tables
        hull = lower_hull(instance_from_tables(ftab, ctab))
        fx, cx = [exact(v) for v in ftab], [exact(v) for v in ctab]
        verts, s_f, s_c = hull.vertices, hull.f_scale, hull.c_scale
        assert hull.f0 == fx[verts[0]] * s_f
        big_f = hull.f0
        for k, (a, b) in enumerate(zip(verts, verts[1:])):
            assert hull.dens[k] > 0
            assert Fraction(hull.nums[k] * s_f, hull.dens[k] * s_c) == (cx[b] - cx[a]) / (
                fx[b] - fx[a]
            )
            big_f += hull.dens[k]
            assert big_f == fx[b] * s_f  # the cumulative f the solver scores

    def test_build_takes_no_gcd(self, monkeypatch):
        instances = (
            build_equal_revenue_submod_f(8),
            build_equal_revenue_submod_f(6, precision_bits=192),
            build_equal_revenue_supmod_c(6),
        )
        calls = []
        gcd = math.gcd

        def counted(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counted)
        for inst in instances:
            LowerHull.build(inst.f, inst.c)
        assert calls == []


class TestExactValues:
    @pytest.mark.parametrize("value, want", [(-1.5, (-3, 2)), (-12, (-12, 1)), (0.25, (1, 4))])
    def test_negative_mpf_keeps_its_sign(self, value, want):
        x = mpmath.mpf(value)
        assert reals.ratio(x) == want and exact(x) == Fraction(*want)

    def test_decreasing_mpf_table_is_not_monotone(self):
        with mpmath.workprec(80):
            f = SetFunctionOracle(1, table=[mpmath.mpf(0), mpmath.mpf(-3)])
        assert core._scaled_ints(f.table) == ([0, -3], 1, False)
        assert verify_structure(f).monotonicity_violations == [(0, 1, Fraction(-3))]


class TestRealContext:
    def test_native_and_extended(self):
        assert RealContext().native
        assert not RealContext(128).native
        with pytest.raises(ValueError):
            RealContext(8)

    def test_make_fraction_exact_at_high_precision(self):
        ctx = RealContext(128)
        x = ctx.make(Fraction(1, 3))
        assert abs(exact(x) - Fraction(1, 3)) < Fraction(1, 1 << 128)

    def test_floor_to_grid(self):
        ctx = RealContext()
        y = ctx.floor_to_grid(0.3, 4)
        assert y == 4 / 16
        ctx2 = RealContext(256)
        with ctx2.workprec():
            g = ctx2.floor_to_grid(ctx2.make(Fraction(1, 3)), 60)
            assert g * (1 << 60) == int(g * (1 << 60))


PRECS = st.integers(2, 300)
EXPS = st.integers(-700, 700)


def mantissa(prec):
    """Nonzero signed ints of at most prec bits, as the recurrences' operands."""
    return st.integers(1, (1 << prec) - 1).flatmap(lambda m: st.sampled_from([m, -m]))


class TestRoundingKernel:
    """The int kernel against mpmath's own rounded operations at the same
    precision, nearest with ties to even, normalized tuple for tuple."""

    @staticmethod
    def rounded(pair):
        return reals.mpf_exact(*pair)._mpf_

    @settings(max_examples=200, deadline=None)
    @given(man=st.integers(-(1 << 700), 1 << 700), exp=EXPS, prec=PRECS)
    def test_round_matches_from_man_exp(self, man, exp, prec):
        want = libmp.from_man_exp(man, exp, prec, libmp.round_nearest)
        assert self.rounded(reals.round_nearest(man, exp, prec)) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), prec=PRECS, drop=st.integers(1, 200), exp=EXPS)
    def test_exact_ties_go_to_even(self, data, prec, drop, exp):
        # man sits exactly halfway between two prec-bit neighbours
        top = data.draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        man = (top << drop) | (1 << (drop - 1))
        man = data.draw(st.sampled_from([man, -man]))
        got_man, got_exp = reals.round_nearest(man, exp, prec)
        assert abs(got_man) == top + (top & 1) and got_exp == exp + drop
        want = libmp.from_man_exp(man, exp, prec, libmp.round_nearest)
        assert self.rounded((got_man, got_exp)) == want

    @given(exp=EXPS, prec=PRECS)
    def test_zero(self, exp, prec):
        assert reals.round_nearest(0, exp, prec) == (0, 0)
        assert reals.add_nearest(0, exp, 0, -exp, prec) == (0, 0)
        assert self.rounded((0, exp)) == libmp.fzero

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), prec=PRECS, e1=EXPS, e2=EXPS)
    def test_add_matches_mpf_add(self, data, prec, e1, e2):
        m1, m2 = data.draw(mantissa(prec)), data.draw(mantissa(prec))
        want = libmp.mpf_add(
            libmp.from_man_exp(m1, e1), libmp.from_man_exp(m2, e2), prec, libmp.round_nearest
        )
        assert self.rounded(reals.add_nearest(m1, e1, m2, e2, prec)) == want

    @settings(max_examples=200, deadline=None)
    @given(man=st.integers(0, 1 << 700), square=st.booleans(), exp=EXPS, prec=PRECS)
    def test_sqrt_matches_mpf_sqrt(self, man, square, exp, prec):
        if square:  # an exact root, no sticky bit
            man *= man
        want = libmp.mpf_sqrt(libmp.from_man_exp(man, exp), prec, libmp.round_nearest)
        assert self.rounded(reals.sqrt_nearest(man, exp, prec)) == want

    @settings(max_examples=200, deadline=None)
    @given(man=st.integers(1, 1 << 700), power=st.booleans(), exp=EXPS, prec=PRECS)
    def test_reciprocal_matches_mpf_div(self, man, power, exp, prec):
        if power:  # an exact reciprocal
            man = 1 << man.bit_length()
        want = libmp.mpf_div(libmp.fone, libmp.from_man_exp(man, exp), prec, libmp.round_nearest)
        assert self.rounded(reals.reciprocal_nearest(man, exp, prec)) == want
