"""Ground-set primitives, oracles, and query semantics."""

import contextlib
import io
import json
import math
from fractions import Fraction
from itertools import groupby
from unittest import mock

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
    best_response_runs,
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
from contractlab import constructions, core, reals, solver
from contractlab.perturb import epsilon_bound
from contractlab.serialize import load_instance, save_instance
from contractlab.reals import RealContext, exact
from mpmath import libmp

from conftest import (
    brute_best_response,
    brute_exact_query,
    degenerate_hull_tables,
    instance_from_tables,
    mixed_monotone_instance_tables,
    monotone_instance_tables,
    non_monotone_tables,
    price_vectors,
    real_monotone_instance_tables,
    reference_argmax,
    supmod_c_cost_fractions,
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, mpmath.inf, mpmath.nan])
    def test_a_non_finite_entry_is_refused_when_set(self, bad):
        for table in ([0.0, bad, 1.0, 2.0], [0, bad, Fraction(1, 3), 2], [bad] * 4):
            with pytest.raises(ValueError, match="finite"):
                SetFunctionOracle(2, table=table)
            oracle = SetFunctionOracle(2, table=[0.0, 1.0, 1.0, 2.0])
            with pytest.raises(ValueError, match="finite"):
                oracle.table = table
        # a finite mpf beyond float range is a valid entry
        big = mpmath.mpf(2) ** 2000
        assert SetFunctionOracle(1, table=[0, big]).scaled() == ((0, 1 << 2000), 1, False)

    def test_a_tuple_table_is_converted_on_first_use(self, monkeypatch):
        calls = []
        original = core._scaled_ints

        def counted(tab, *kinds):
            calls.append(len(tab))
            return original(tab, *kinds)

        monkeypatch.setattr(core, "_scaled_ints", counted)
        oracle = SetFunctionOracle(2, table=[0.0, 0.5, 0.25, 1.0])
        assert calls == []
        form = oracle.scaled()
        assert form == ((0, 2, 1, 4), 4, False) and oracle.scaled() is form and calls == [4]
        oracle.table = [0.0, 0.5, 0.75, 1.0]
        assert oracle.scaled() == ((0, 2, 3, 4), 4, False) and calls == [4, 4]

    @pytest.mark.parametrize("how", ["float", "mpf192", "rational"])
    def test_a_member_inherits_its_base_view(self, how):
        n = 4
        # (m^2 + 1) / 3, rounded to a float, to 192 bits, and exact
        vals = [m * m + 1 for m in range(1 << n)]
        if how == "float":
            table = [v / 3 for v in vals]
        elif how == "mpf192":
            table = reals.MpfTable([(v << 192) // 3 for v in vals], 1 << 192, False)
        else:
            table = reals.MpfTable(vals, 3, True)
        base = SetFunctionOracle(n, table=table)
        k, ints, scale = 5, *base.scaled()[:2]
        unbuilt = base.with_entries((k,), (ints[k],), scale, "member", (base.table[k],))
        assert unbuilt._view is None  # built on its own first use
        base_view, base_top = base.float_view()
        for kint in (ints[k] + scale // 2, 1 << 40):
            entry = reals.MpfTable([kint], scale, how == "rational")[0]
            if how == "float":
                entry = kint / scale
            member = base.with_entries((k,), (kint,), scale, "member", (entry,))
            view, top = member._view
            fresh = SetFunctionOracle(n, table=member.table).float_view()
            assert list(view) == list(fresh[0]) and top == max(base_top, abs(view[k]))
            assert top >= fresh[1] and (view is member.table) == (how == "float")
        assert base.float_view() == (base_view, base_top)

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

    def test_mpf_table_needs_a_positive_scale_a_power_of_two_for_mpfs(self):
        for scaled in (([1, 2], 3, False), ([1, 2], 0, False), ([1, 2], 0, True), ([1, 2], -3, True)):
            with pytest.raises(ValueError, match="positive scale"):
                reals.MpfTable(*scaled)
        oracle = SetFunctionOracle(1, table=reals.MpfTable([0, 12], 8, False))
        assert [v._mpf_ for v in oracle.value_table()] == [libmp.fzero, (0, 3, -1, 2)]
        oracle = SetFunctionOracle(1, table=reals.MpfTable([0, 12], 9, True))
        assert list(oracle.value_table()) == [0, Fraction(4, 3)]

    def test_exactly_one_of_table_weights(self):
        held = reals.MpfTable([0, 1], 1, True)
        for kwargs in ({"table": [0, 1], "weights": [1]}, {"table": held, "weights": [1]}, {}):
            with pytest.raises(ValueError, match="exactly one"):
                SetFunctionOracle(1, **kwargs)

    def test_rational_view_equals_its_fractions(self):
        ints, scale = [0, 3, 5, 12], 6
        oracle = SetFunctionOracle(2, table=reals.MpfTable(ints, scale, True))
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

    def test_a_table_of_fractions_is_held_as_its_ints(self):
        fracs = [Fraction(0), Fraction(1, 3), Fraction(5, 6), Fraction(2)]
        oracle = SetFunctionOracle(2, table=fracs)
        tab = oracle.table
        assert isinstance(tab, reals.MpfTable) and tab.rational
        assert oracle.scaled() == ((0, 2, 5, 12), 6, True) and oracle.scaled()[0] is tab.ints
        for got in (list(tab), [tab[m] for m in range(4)]):
            assert got == fracs and all(type(v) is Fraction for v in got)
        # any other table keeps its entries, types included, beside its exact
        # form, built once when the table is set
        for kept in ([0, Fraction(1, 3), Fraction(5, 6), 2], [0.0, Fraction(1, 3), 1.0, 2.0],
                     [0, 1, 2, 3]):
            oracle = SetFunctionOracle(2, table=kept)
            assert type(oracle.table) is tuple and oracle.scaled() is oracle.scaled()
            ints, scale, rational = core._scaled_ints(kept)
            assert oracle.scaled() == (tuple(ints), scale, rational)
            assert [(type(v), v) for v in oracle.table] == [(type(v), v) for v in kept]
        cost = build_equal_revenue_supmod_c(5).c.table
        assert isinstance(cost, reals.MpfTable) and list(cost) == supmod_c_cost_fractions(5)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_held_fraction_table_saves_as_its_tuple(self, tmp_path, n):
        inst = build_equal_revenue_supmod_c(n)
        held, plain = tmp_path / "held.json", tmp_path / "tuple.json"
        save_instance(inst, str(held))
        inst.c.table = tuple(inst.c.table)  # the cost as a tuple of its Fractions
        save_instance(inst, str(plain))
        assert held.read_bytes() == plain.read_bytes()

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
        hull, budget = lower_hull(inst), epsilon_bound(inst)
        assert lower_hull(inst) is hull and epsilon_bound(inst) is budget
        inst.f.table = tuple(inst.f.table)  # the same values, as a tuple
        rebuilt, again = lower_hull(inst), epsilon_bound(inst)
        assert rebuilt is not hull and again is not budget
        assert (rebuilt.vertices, rebuilt.nums, rebuilt.dens) == (hull.vertices, hull.nums, hull.dens)
        assert again.components == budget.components
        # changed entries are read: c doubled widens every c gap, and takes
        # every critical value past 1, so the chain and its budget are refused
        inst.c.table = tuple(2 * v for v in inst.c.table)
        assert lower_hull(inst).nums == [2 * d for d in rebuilt.nums]
        with pytest.raises(ValueError, match="equal-revenue construction"):
            epsilon_bound(inst)


# one value kind per draw, on a quarter grid so that floats and mpfs are exact
KINDS = {
    "int": int,
    "Fraction": lambda v: Fraction(v, 4),
    "float": lambda v: v / 4,
    "mpf": lambda v: mpmath.mpf(v) / 4,
}


@st.composite
def tie_heavy_vectors(draw):
    """(util, tie) of one kind, drawn from few values, with more positions
    planted at the greatest utility and at one tie value."""
    size = draw(st.integers(1, 40))
    util = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    tie = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    for m in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        util[m] = max(util)
    planted = draw(st.integers(-2, 2))
    for m in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        tie[m] = planted
    make = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    return [make(u) for u in util], [make(t) for t in tie]


class TestArgmaxAndCut:
    """core._argmax, the one argmax, against the plain loop over masks, and
    core._within, the one sigma cut, against the cut decided in Fractions."""

    @given(tie_heavy_vectors())
    @settings(max_examples=300, deadline=None)
    def test_argmax_equals_the_loop(self, vectors):
        util, tie = vectors
        assert core._argmax(util, tie) == reference_argmax(util, tie)

    def test_argmax_tie_rule(self):
        # the greatest utility, then the greatest tie value, then the lowest mask
        assert core._argmax([1, 3, 3, 3, 2], [9, 0, 5, 5, 9]) == 2
        assert core._argmax([0.5, 0.5], [1, 1]) == 0
        assert core._argmax([7], [0]) == 0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_within_on_int_scores_equals_the_fraction_cut(self, data):
        util = data.draw(st.lists(st.integers(-200, 200), min_size=1, max_size=40))
        factor = data.draw(st.integers(1, 64))
        top = max(util)
        sigma = data.draw(st.one_of(
            # exactly on some position's distance, so that position is the edge
            st.sampled_from(util).map(lambda u: Fraction(top - u, factor)),
            st.fractions(min_value=0, max_value=8, max_denominator=64),
            st.integers(0, 8),
            st.floats(min_value=0, max_value=8),
            st.floats(min_value=0, max_value=8).map(mpmath.mpf),
        ))
        kind = data.draw(st.sampled_from((Fraction, float, mpmath.mpf)))
        if kind is not Fraction and isinstance(sigma, Fraction):
            sigma = kind(sigma.numerator) / sigma.denominator
        cut = top - exact(sigma) * factor
        assert core._within(util, factor, sigma) == [m for m, u in enumerate(util) if u >= cut]

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, mpmath.mpf("nan"), -1, -1e-300])
    @pytest.mark.parametrize("factor", [1, 3])
    def test_within_refuses_a_bad_sigma(self, sigma, factor):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            core._within([0, 1, 2], factor, sigma)


class TestQueries:
    @given(monotone_instance_tables(), st.data())
    @settings(max_examples=60)
    def test_demand_matches_brute_force(self, tables, data):
        n, ftab, _ = tables
        prices = data.draw(price_vectors(n))
        f = SetFunctionOracle(n, table=ftab)
        got = demand(f, prices)
        assert got.mask == brute_exact_query("demand", ftab, prices)
        assert f.ledger.demand_queries == 1

    @given(monotone_instance_tables(), st.data())
    @settings(max_examples=60)
    def test_supply_matches_brute_force(self, tables, data):
        n, _, ctab = tables
        prices = data.draw(price_vectors(n))
        c = SetFunctionOracle(n, table=ctab)
        got = supply(c, prices)
        assert got.mask == brute_exact_query("supply", ctab, prices)
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

    def test_non_finite_prices_refused_before_any_query(self):
        nan, inf = math.nan, math.inf
        float_f = SetFunctionOracle(3, table=[v / 2 for v in range(8)])
        held_f = SetFunctionOracle(3, table=[Fraction(v, 2) for v in range(8)])
        bad = ([nan] * 3, [1.0, nan, 0.1], [inf, 0.0, 0.0], [-inf, inf, 1.0],
               [mpmath.mpf("nan"), 1, 1], [1, mpmath.inf, 1])
        for oracle in (float_f, held_f):
            for prices in bad:
                for query in (demand, supply):
                    with pytest.raises(ValueError, match="prices must be finite"):
                        query(oracle, prices)
            assert oracle.ledger == QueryLedger()
            # finite prices whose float sum overflows are answered exactly in
            # every representation: the top set costs 2e308
            overflow = [1e308, 1e308, 0.0]
            for kind, query in (("demand", demand), ("supply", supply)):
                want = brute_exact_query(kind, list(oracle.table), overflow)
                assert query(oracle, overflow).mask == want == {"demand": 4, "supply": 3}[kind]

    def test_sub_ulp_supply_winner_is_exact(self):
        # at prices (1, 1), {1} gains 2/3 and {2} less than an ulp below it:
        # in floats the two tie and the tie goes to {2}, the higher cost
        low = Fraction(1, 3)
        ctab = [Fraction(0), low, low + Fraction(1, 3 << 60), Fraction(2)]
        c = SetFunctionOracle(2, table=ctab)
        assert float(1 - ctab[1]) == float(1 - ctab[2])
        assert supply(c, [1.0, 1.0]).mask == brute_exact_query("supply", ctab, [1, 1]) == 1

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
        assert inst.kept["hull"] is hull  # built once, kept on the instance

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
        first = inst.kept["hull"]
        inst.f = SetFunctionOracle(2, table=[0, 2, 3, 9])
        assert best_response(inst, Fraction(1, 2)).mask == 0b11
        assert inst.kept["hull"] is not first
        second = inst.kept["hull"]
        inst.c = SetFunctionOracle(2, table=[0, 1, 2, 9])
        assert best_response(inst, Fraction(1, 2)).mask == 0b01
        assert inst.kept["hull"] is not second

    def test_tables_are_immutable(self):
        inst = instance_from_tables([0, 2, 4, 5], [0, 1, 2, 4])
        additive = SetFunctionOracle(2, weights=[1, 2])
        for oracle in (inst.f, inst.c, additive):
            with pytest.raises(TypeError):
                oracle.value_table()[1] = 7


class TestBestResponseRuns:
    """best_response_runs answers a non-decreasing list of alphas as
    best_response answers them one by one, in maximal runs."""

    @staticmethod
    def expand(runs, total):
        masks, start = [], 0
        for stop, mask in runs:
            assert start < stop <= total  # no empty run
            masks += [mask] * (stop - start)
            start = stop
        assert start == total
        return masks

    @given(
        st.one_of(
            mixed_monotone_instance_tables(max_n=3),
            real_monotone_instance_tables(53, max_n=3),
            real_monotone_instance_tables(192, max_n=3),
            degenerate_hull_tables(max_n=3),
        ),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_best_response_alpha_by_alpha(self, tables, data):
        # every slope of the cloud exactly, just off each side, as a float,
        # 0 and 1, drawn with repeats and sorted
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab)
        pool = _query_alphas(ftab, ctab)
        pool += [float(a) for a in pool] + [1]
        alphas = sorted(data.draw(st.lists(st.sampled_from(pool), max_size=60)))
        runs = best_response_runs(inst, alphas)
        assert inst.ledger.best_response_queries == len(alphas)  # one charge per alpha
        masks = self.expand(runs, len(alphas))
        assert masks == [best_response(inst, a).mask for a in alphas]
        assert [mask for _, mask in runs] == [m for m, _ in groupby(masks)]  # maximal runs

    def test_empty_list(self):
        inst = instance_from_tables([0, 2, 4, 5], [0, 1, 2, 4])
        assert best_response_runs(inst, []) == []
        assert inst.ledger.best_response_queries == 0

    def test_long_runs_on_and_off_the_slopes(self):
        # slopes 1/2 and 2: runs of 0s, of the slope 1/2 exactly (higher-f
        # end), of 1 and of alphas past the last slope, each galloped over
        inst = instance_from_tables([0, 2, 4, 5], [0, 1, 2, 4])
        lists = (
            [0] * 100 + [Fraction(1, 2)] * 37 + [1] * 5 + [Fraction(2)] * 64 + [3.5] * 9,
            [Fraction(k, 512) for k in range(1025)],
            [0.5] * 3,
            [-1] * 2 + [0] * 300,
        )
        for alphas in lists:
            masks = self.expand(best_response_runs(inst, alphas), len(alphas))
            assert masks == [best_response(inst, a).mask for a in alphas]

    @pytest.mark.parametrize("bits", [None, 360])
    def test_fptas_grids_on_the_submodular_chain(self, bits):
        # hull with 2^n vertices, mpf alphas: the shape the FPTAS asks
        inst = build_equal_revenue_submod_f(7, precision_bits=bits)
        for eps in (0.2, 0.01):
            grid = solver.alpha_bracket(inst, inst.ctx.make(1), inst.ctx.make(1), eps)
            masks = self.expand(best_response_runs(inst, grid), len(grid))
            assert masks == [best_response(inst, a).mask for a in grid]


class TestHullFrame:
    """The hull keeps the oracles' scaled frame: raw int differences per
    edge, the two scales, and the scaled f of its first vertex.  It is the
    one place the chain's order is made: the solver checks none of it."""

    @given(
        st.one_of(
            real_monotone_instance_tables(53),
            real_monotone_instance_tables(192),
            mixed_monotone_instance_tables(),
            degenerate_hull_tables(),
            non_monotone_tables(),
        )
    )
    @settings(max_examples=160, deadline=None)
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
        # slopes rise strictly along the hull, and every chain edge has dC > 0
        nums, dens = hull.nums, hull.dens
        assert all(p * d < q * e for p, e, q, d in zip(nums, dens, nums[1:], dens[1:]))
        assert all(nums[j] > 0 for j in solver._chain(hull))

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


@st.composite
def moved_clouds(draw, max_n=4):
    """(n, fs, cs, moves): a cloud's f and c as ints over one scale, drawn
    monotone or with degenerate_hull_tables' planted duplicate and collinear
    points, and moves, each a (mask, f int, c int) that puts a point up or
    down, onto another point or onto the midpoint of two others, or
    leaves it; one to four distinct masks, vertices of the cloud's hull
    among them or not."""
    n, ftab, ctab = draw(st.one_of(monotone_instance_tables(max_n), degenerate_hull_tables(max_n)))
    size = 1 << n
    fs, cs = ([2 * v for v in core._scaled_ints(tab)[0]] for tab in (ftab, ctab))  # even
    masks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True))
    moves = []
    for m in masks:
        how = draw(st.sampled_from(("up", "down", "copy", "midpoint", "same")))
        a, b = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        df, dc = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        if how == "up":
            moves.append((m, fs[m] + df, cs[m] + dc))
        elif how == "down":
            moves.append((m, fs[m] - df, cs[m] - dc))
        elif how == "copy":
            moves.append((m, fs[a], cs[a]))
        elif how == "midpoint":
            moves.append((m, (fs[a] + fs[b]) // 2, (cs[a] + cs[b]) // 2))
        else:
            moves.append((m, fs[m], cs[m]))
    return n, fs, cs, moves


def _cloud(n, fs, cs, moves, scale=2):
    """(parent f, parent c, f, c): oracles of the ints fs and cs over scale
    and their children with the moves made (with_entries, every move's
    position recorded on both), an unmoved int left the parent's own."""
    parents = [SetFunctionOracle(n, table=reals.MpfTable(v, scale, True)) for v in (fs, cs)]
    ks = tuple(m for m, _, _ in moves)
    children = []
    for side, parent in enumerate(parents):
        own = parent.scaled()[0]
        kints = [v[side] if v[side] != own[m] else own[m] for m, *v in moves]
        children.append(parent.with_entries(ks, kints, parent.scaled()[1], "moved"))
    return (*parents, *children)


_WIDE = 1 << 80


class TestHullRepair:
    """LowerHull.repair puts a child's moved points into its parent's hull;
    the result is LowerHull.build's on the child, field for field, and
    build itself runs only where the repair cannot confirm its input."""

    @given(moved_clouds())
    @settings(max_examples=300, deadline=None)
    def test_equals_build(self, cloud):
        n, fs, cs, moves = cloud
        pf, pc, f, c = _cloud(n, fs, cs, moves)
        hull = LowerHull.build(pf, pc)
        want = LowerHull.build(f, c)
        vertex_moved = not set(hull.vertices).isdisjoint(m for m, _, _ in moves)
        with mock.patch.object(LowerHull, "build", wraps=LowerHull.build) as build:
            got = hull.repair(pf, pc, f, c)
        assert got == want
        assert build.call_count == vertex_moved  # build only when a vertex moved

    def test_moves_onto_and_off_the_hull(self):
        # hull 0 -> 1 -> 7 over n = 3: (0, 0), (4, 0), (9, 99); 4, 5 and 6
        # are above it.  Each goes under the hull, onto an edge, onto
        # vertex 1's point (a higher mask: it drops), onto vertex 7's (a
        # lower mask: it takes the vertex's place), past the last vertex,
        # or further up
        fs = [0, 4, 0, 4, 2, 2, 9, 9]
        cs = [0, 0, 4, 4, 3, 3, 100, 99]
        for point in ((2, -1), (2, 0), (4, 0), (9, 99), (10, 99), (2, 50), (9, -5)):
            for m in (4, 5, 6):
                pf, pc, f, c = _cloud(3, fs, cs, [(m, *point)], scale=1)
                hull = LowerHull.build(pf, pc)
                assert hull.vertices == [0, 1, 7]
                assert hull.repair(pf, pc, f, c) == LowerHull.build(f, c), (point, m)

    @staticmethod
    def fallback(monkeypatch, pf, pc, f, c):
        """Whether hull.repair builds afresh, and its answer equals build's."""
        hull = LowerHull.build(pf, pc)
        calls = []
        original = LowerHull.build.__func__

        def counted(cls, *oracles):
            calls.append(oracles)
            return original(cls, *oracles)

        monkeypatch.setattr(LowerHull, "build", classmethod(counted))
        got = hull.repair(pf, pc, f, c)
        monkeypatch.undo()
        assert got == LowerHull.build(f, c)
        return bool(calls)

    # ints over B wide enough to be objects of their own: mask 4, (5, 20),
    # is far above the hull, MOVE puts it below at (5, 2)
    B = _WIDE
    FS = [v * _WIDE for v in (0, 2, 3, 4, 5, 6, 7, 8)]
    CS = [v * _WIDE for v in (0, 1, 3, 6, 20, 9, 12, 16)]
    MOVE = [(4, 5 * _WIDE, 2 * _WIDE)]

    def test_repairs_without_a_build(self, monkeypatch):
        pf, pc, f, c = _cloud(3, self.FS, self.CS, self.MOVE, scale=self.B)
        assert 4 not in LowerHull.build(pf, pc).vertices
        assert not self.fallback(monkeypatch, pf, pc, f, c)
        assert 4 in LowerHull.build(f, c).vertices

    def test_a_moved_vertex_builds(self, monkeypatch):
        pf, pc, f, c = _cloud(3, self.FS, self.CS, [(0, self.B, 0)], scale=self.B)
        assert 0 in LowerHull.build(pf, pc).vertices
        assert self.fallback(monkeypatch, pf, pc, f, c)

    def test_another_scale_builds(self, monkeypatch):
        pf, pc, _, c = _cloud(3, self.FS, self.CS, self.MOVE, scale=self.B)
        ints, scale, _ = pf.scaled()
        f = pf.with_entries((4,), (ints[4] * 2,), scale * 2, "doubled")  # same values
        assert f.moved_from(pf) is None
        assert self.fallback(monkeypatch, pf, pc, f, c)

    def test_an_int_not_the_parents_own_builds(self, monkeypatch):
        # the parent's table is set anew to equal ints after the child was
        # made: the child's unmoved ints are no longer the parent's objects
        pf, pc, f, c = _cloud(3, self.FS, self.CS, self.MOVE, scale=self.B)
        ints, scale, _ = pf.scaled()
        pf.table = reals.MpfTable([v + (1 << 90) - (1 << 90) for v in ints], scale, True)
        assert f.origin[0] is pf and f.moved_from(pf) is None
        assert self.fallback(monkeypatch, pf, pc, f, c)

    def test_an_oracle_of_another_parent_builds(self, monkeypatch):
        pf, pc, f, c = _cloud(3, self.FS, self.CS, self.MOVE, scale=self.B)
        other = SetFunctionOracle(3, table=pf.table)
        assert other.moved_from(pf) is None and f.moved_from(pf) == (4,)
        assert self.fallback(monkeypatch, pf, pc, other, c)


class TestOriginRecord:
    """with_entries records a child's origin, (parent, the parent's exact
    form, ks), on the parent's scale alone; moved_from reads that record
    and no int, and a parent table set since sends the child to the full
    structure pass and the hull build."""

    FS, CS, MOVE, B = TestHullRepair.FS, TestHullRepair.CS, TestHullRepair.MOVE, _WIDE

    def cloud(self):
        return _cloud(3, self.FS, self.CS, self.MOVE, scale=self.B)

    def test_a_child_records_its_parent_and_form(self):
        pf, pc, f, c = self.cloud()
        for parent, child in ((pf, f), (pc, c)):
            assert child.origin[0] is parent and child.origin[1] is parent.scaled()
            assert child.origin[2] == (4,) and child.moved_from(parent) == (4,)
            assert parent.moved_from(parent) == ()
        assert f.moved_from(pc) is None and pf.moved_from(f) is None

    def test_moved_from_reads_no_int(self, monkeypatch):
        pf, _, f, _ = self.cloud()
        f._form = None  # no ints of the child's left to read

        def refused(oracle):
            raise AssertionError("an exact form was read")

        monkeypatch.setattr(SetFunctionOracle, "scaled", refused)
        assert f.moved_from(pf) == (4,)

    @pytest.mark.parametrize("same_objects", [True, False])
    def test_a_parent_set_anew_builds_and_runs_the_full_pass(self, monkeypatch, same_objects):
        pf, pc, f, c = self.cloud()
        ints, scale, _ = pf.scaled()
        if not same_objects:  # equal ints that are not the objects the child holds
            ints = [v + (1 << 90) - (1 << 90) for v in ints]
        pf.table = reals.MpfTable(ints, scale, True)
        assert (pf.scaled()[0] is f.origin[1][0]) == same_objects
        assert f.origin[0] is pf and f.moved_from(pf) is None
        assert TestHullRepair.fallback(monkeypatch, pf, pc, f, c)
        want = verify_structure(SetFunctionOracle(3, table=f.table))
        passes = []
        original = constructions._marginal_vectors

        def counted(*args):
            passes.append(args)
            return original(*args)

        monkeypatch.setattr(constructions, "_marginal_vectors", counted)
        assert verify_structure(f) == want and len(passes) == 1 and pf.verdict is None

    def test_a_rescaled_child_has_no_origin(self):
        pf, _, _, _ = self.cloud()
        ints, scale, _ = pf.scaled()
        f = pf.with_entries((4,), (ints[4] * 2 + 1,), scale * 2, "finer")
        assert f.origin is None and f.moved_from(pf) is None
        assert pf.with_entries((4,), (ints[4] + 1,), scale, "same").moved_from(pf) == (4,)

    def test_setting_the_childs_table_drops_it(self):
        pf, _, f, _ = self.cloud()
        f.table = f.table
        assert f.origin is None and f.moved_from(pf) is None


@st.composite
def entry_children(draw):
    """(parent, child): a float-tuple, mpf MpfTable or rational MpfTable
    parent over n = 1..4, and its with_entries child at 0..4 positions,
    each new entry one of the parent's, on the parent's scale, or that
    entry halved, on twice the least scale that holds the parent's entries
    and the new ones."""
    n = draw(st.integers(1, 4))
    how = draw(st.sampled_from(["float", "mpf", "rational"]))
    nums = draw(st.lists(st.integers(-(1 << 60), 1 << 60), min_size=1 << n, max_size=1 << n))
    if how == "float":
        table = [v / 3 for v in nums]
    elif how == "mpf":
        with mpmath.workprec(96):
            table = reals.MpfTable(*core._scaled_ints([mpmath.mpf(v) / 3 for v in nums]))
    else:
        table = [Fraction(v, draw(st.integers(1, 12))) for v in nums]
    parent = SetFunctionOracle(n, table=table)
    own = parent.scaled()[1]
    ks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4, unique=True))
    finer = draw(st.booleans())
    entries = [parent.table[draw(st.integers(0, (1 << n) - 1))] for _ in ks]
    if finer:
        entries = [e / 2 for e in entries]
    ratios = [reals.ratio(e) for e in entries]
    scale = math.lcm(own, *(q for _, q in ratios)) * (2 if finer else 1)
    kints = [p * (scale // q) for p, q in ratios]
    if how != "float" and draw(st.booleans()):
        entries = None  # read off the ints
    return parent, parent.with_entries(ks, kints, scale, "child", entries)


class TestWithEntries:
    """A with_entries child's exact form is its own table's, and input that
    would break that or the origin record is refused."""

    @given(entry_children())
    @settings(max_examples=300, deadline=None)
    def test_the_form_is_the_tables_own(self, pair):
        parent, child = pair
        ints, scale, rational = core._scaled_ints(child.table)
        got, got_scale, got_rational = child.scaled()
        assert got_scale % scale == 0 and got_rational == rational
        assert list(got) == [v * (got_scale // scale) for v in ints]
        on_parents_scale = got_scale == parent.scaled()[1]
        assert (child.moved_from(parent) is None) == (child.origin is None) == (not on_parents_scale)

    def test_a_scale_not_a_positive_multiple_is_refused(self):
        parent = SetFunctionOracle(1, table=[Fraction(1, 4), Fraction(1, 2)])
        for scale in (6, 2, 0, -4):
            with pytest.raises(ValueError, match="multiple"):
                parent.with_entries((1,), (3,), scale, "c")
        assert parent.with_entries((1,), (3,), 8, "c").table == (Fraction(1, 4), Fraction(3, 8))

    def test_ints_not_one_per_position_or_a_position_outside_is_refused(self):
        parent = SetFunctionOracle(2, table=[0.0, 0.25, 0.5, 0.75])
        for ks, kints, entries in (((1,), (1, 2), (0.25, 0.5)), ((1, 2), (1,), (0.25,)),
                                   ((1,), (1,), (0.25, 0.5))):
            with pytest.raises(ValueError, match="per position"):
                parent.with_entries(ks, kints, 4, "c", entries)
        for k in (-1, 4):
            with pytest.raises(ValueError, match=r"per position, each in \[0, 4\)"):
                parent.with_entries((k,), (1,), 4, "c", (0.25,))

    def test_repeated_positions_are_refused(self):
        parent = SetFunctionOracle(2, table=reals.MpfTable([0, 1, 2, 3], 1, True))
        for ks in ((1, 1), (0, 2, 0)):
            with pytest.raises(ValueError, match="distinct positions"):
                parent.with_entries(ks, (5, 7, 9)[:len(ks)], 1, "x")

    def test_an_entry_not_its_int_over_scale_is_refused(self):
        parent = SetFunctionOracle(1, table=[0.0, 0.75])
        with pytest.raises(ValueError, match="its int over scale"):
            parent.with_entries((1,), (1,), 4, "g", (0.5,))
        child = parent.with_entries((1,), (2,), 4, "g", (0.5,))
        assert child.table == (0.0, 0.5) and child.scaled() == ((0, 2), 4, False)


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
