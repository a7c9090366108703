"""Hidden-optimum perturbation families."""

import dataclasses
from fractions import Fraction
from operator import add, sub

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from contractlab.constructions import (
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
    kind_of,
    marginal_margins,
)
from contractlab import perturb
from contractlab.core import SetFunctionOracle
from contractlab.perturb import (
    COST_DISCOUNT,
    REWARD_BONUS,
    BudgetError,
    epsilon_bound,
    epsilon_bound_cost,
    epsilon_bound_reward,
    family_iterator,
    make_perturbed,
    valid_k_range,
)
from contractlab.reals import MpfTable, RealContext, exact
from contractlab.serialize import instance_from_dict, instance_to_dict
from contractlab.solver import chain_alphas, enumerate_breakpoints, optimal_contract

from conftest import mixed_pairwise_tables, reference_cost_budget, strictly_of_class


def brute_nested_margin(tab, n, sense):
    """min over strict nested pairs S < T and i outside T of
    sense * (v(i|S) - v(i|T)); the adjacent-pair bound must equal this."""
    best = None
    for s in range(1 << n):
        for t in range(1 << n):
            if s == t or s & ~t:
                continue
            for i in range(n):
                bit = 1 << i
                if t & bit:
                    continue
                d = sense * ((tab[s | bit] - tab[s]) - (tab[t | bit] - tab[t]))
                if best is None or d < best:
                    best = d
    return best


def loop_margins(tab, n, sense):
    """The per-(S, i, j) loop the whole-vector kernel replaced: the same
    subtractions, taken one at a time, so (least marginal, margin) must be
    bit-identical; sense 0 takes min(d, -d) of each diff d."""
    least = best = None
    bits = [1 << i for i in range(n)]
    for m in range(1 << n):
        for i in range(n):
            bi = bits[i]
            if m & bi:
                continue
            marg_i = tab[m | bi] - tab[m]
            if least is None or marg_i < least:
                least = marg_i
            for j in range(i + 1, n):
                bj = bits[j]
                if m & bj:
                    continue
                marg_j = tab[m | bj] - tab[m]
                for d in (
                    marg_i - (tab[m | bj | bi] - tab[m | bj]),
                    marg_j - (tab[m | bi | bj] - tab[m | bi]),
                ):
                    d = min(d, -d) if sense == 0 else d if sense > 0 else -d
                    if best is None or d < best:
                        best = d
    return least, best


@st.composite
def real_tables(draw, bits):
    """(n, table) of tenths summed in RealContext(bits) arithmetic: float at
    53 bits, else mpf; no structure, so both signs of every margin occur."""
    n = draw(st.integers(1, 5))
    ctx = RealContext(bits)
    steps = draw(st.lists(st.integers(-40, 40), min_size=1 << n, max_size=1 << n))
    with ctx.workprec():
        table = [ctx.make(0)]
        for m in range(1, 1 << n):
            table.append(table[m & (m - 1)] + ctx.make(Fraction(steps[m], 10)))
    return n, table, ctx


class TestWholeVectorMargin:
    @given(
        st.one_of(
            real_tables(53),
            real_tables(80),
            mixed_pairwise_tables(max_n=5).map(lambda t: (*t, RealContext())),
            # every denominator of those tables divides 2310: the same as ints
            mixed_pairwise_tables(max_n=5).map(
                lambda t: (t[0], [int(v * 2310) for v in t[1]], RealContext())
            ),
        ),
        st.sampled_from([+1, -1, 0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_loop(self, tables, sense):
        n, table, ctx = tables
        with ctx.workprec():
            got = marginal_margins(table, n, sense)
            want = loop_margins(table, n, sense)
            least_only = marginal_margins(table, n, None)
        assert got == want
        assert least_only == (want[0], None)
        if len(set(map(type, table))) == 1:
            # on a mixed table an int and an equal Fraction may swap places
            assert repr(got) == repr(want)


class TestBudgets:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reward_budget_positive(self, n):
        base = build_equal_revenue_submod_f(n)
        b = epsilon_bound_reward(base)
        assert b.epsilon_max > 0
        assert kind_of(base).direction == REWARD_BONUS
        assert b.epsilon_max == min(b.components)
        assert b.default_epsilon * 2 == b.epsilon_max

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cost_budget_positive(self, n):
        base = build_equal_revenue_supmod_c(n)
        b = epsilon_bound_cost(base)
        assert b.epsilon_max > 0
        assert kind_of(base).direction == COST_DISCOUNT

    @pytest.mark.parametrize("n", [2, 3])
    def test_adjacent_margin_equals_nested_minimum(self, n):
        fbase = build_equal_revenue_submod_f(n)
        ftab = fbase.f.value_table()
        assert epsilon_bound_reward(fbase).components[0] == brute_nested_margin(ftab, n, +1)
        cbase = build_equal_revenue_supmod_c(n)
        ctab = cbase.c.value_table()
        assert epsilon_bound_cost(cbase).components[0] == brute_nested_margin(ctab, n, -1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cost_budget_on_held_ints_equals_the_fraction_formula(self, n):
        base = build_equal_revenue_supmod_c(n)
        assert isinstance(base.c.table, MpfTable) and base.c.table.rational
        got, want = epsilon_bound_cost(base), reference_cost_budget(base)
        assert got == want
        assert list(map(type, (got.epsilon_max, *got.components))) == list(
            map(type, (want.epsilon_max, *want.components)))

    @pytest.mark.parametrize("how", ["float", "mpf"])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_cost_budget_on_a_float_cost_is_exact(self, n, how):
        # the supmod_c cost as floats (or 192-bit mpfs) keeps its chain; c1
        # and c2 are the exact margin and least gap of those entries, not
        # rounded differences, and the least term is found by exact value
        base = build_equal_revenue_supmod_c(n)
        if how == "float":
            base.c.table = tuple(float(v) for v in base.c.table)
        else:
            base.ctx = RealContext(192)
            with base.ctx.workprec():
                base.c.table = tuple(mpmath.mpf(v.numerator) / v.denominator for v in base.c.table)
        exact_c = [exact(v) for v in base.c.table]
        got = epsilon_bound_cost(base)
        assert got.components[:2] == (
            brute_nested_margin(exact_c, n, -1),
            min(b - a for a, b in zip(exact_c[1:], exact_c[2:])),
        )
        assert type(got.components[2]) is {"float": float, "mpf": mpmath.mpf}[how]
        assert exact(got.epsilon_max) == min(map(exact, got.components))
        assert len(list(family_iterator(base))) == len(valid_k_range(base))

    def test_dispatch_by_kind(self):
        for base, budget in ((build_equal_revenue_submod_f(2), epsilon_bound_reward),
                             (build_equal_revenue_supmod_c(2), epsilon_bound_cost)):
            assert epsilon_bound(base) == budget(base)

    def test_unrecognized_base_rejected(self):
        inst = build_equal_revenue_submod_f(2)
        inst.meta["kind"] = "mystery"
        with pytest.raises(ValueError):
            epsilon_bound(inst)


class TestKeptBudget:
    @staticmethod
    def counted(monkeypatch):
        """The bases each budget is computed for, counted at the two
        uncached bounds epsilon_bound builds from."""
        calls = []
        for name in ("epsilon_bound_reward", "epsilon_bound_cost"):

            def counting(base, bound=getattr(perturb, name)):
                calls.append(base)
                return bound(base)

            monkeypatch.setattr(perturb, name, counting)
        return calls

    @pytest.mark.parametrize("build", [build_equal_revenue_submod_f, build_equal_revenue_supmod_c])
    def test_computed_once_per_base(self, build, monkeypatch):
        base = build(4)
        fresh = perturb._budget(base)
        calls = self.counted(monkeypatch)
        budget = epsilon_bound(base)
        assert budget == fresh
        eps = budget.default_epsilon
        for k in (2, 5, 9):
            make_perturbed(base, k, eps)
        assert {fam.epsilon for fam in family_iterator(base)} == {eps}
        assert epsilon_bound(base) is budget and calls == [base]

    def test_reassigned_table_recomputes(self, monkeypatch):
        calls = self.counted(monkeypatch)
        base = build_equal_revenue_submod_f(3, precision_bits=128)
        first = epsilon_bound(base)
        # an equal table in a new object still recomputes: identity decides
        base.f = SetFunctionOracle(3, table=list(base.f.table), declared_class="submodular")
        assert epsilon_bound(base) is not first and len(calls) == 2
        # f doubled keeps the chain, each critical value halved, and
        # doubles every margin
        with base.ctx.workprec():
            doubled = [2 * v for v in base.f.table]
        base.f = SetFunctionOracle(3, table=doubled, declared_class="submodular")
        second = epsilon_bound(base)
        assert len(calls) == 3
        with base.ctx.workprec():
            assert second.components == tuple(2 * v for v in first.components)

    def test_doubled_cost_refused_as_on_a_loaded_copy(self):
        # c doubled takes every critical value past 1: the tables' only one
        # is 0 at the empty set, so the closed-form chain kept at
        # construction, and the budget read from it, must not be served
        base = build_equal_revenue_submod_f(3, precision_bits=128)
        assert len(chain_alphas(base)) == 8 and epsilon_bound(base).epsilon_max > 0
        base.c = SetFunctionOracle(3, weights=[2 * w for w in base.c.weights])
        loaded = instance_from_dict(instance_to_dict(base))
        for inst in (loaded, base):
            for accessor in (chain_alphas, epsilon_bound):
                with pytest.raises(ValueError, match="^base must be an equal-revenue construction$"):
                    accessor(inst)
        assert "alpha_table" not in base.meta

    def test_budget_is_frozen(self):
        budget = epsilon_bound(build_equal_revenue_supmod_c(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.epsilon_max = 1


def tuple_member_body(base, direction, k, epsilon):
    """A member's table as _perturbed built it for every base before a
    member of an MpfTable base was held as ints: the base's entries, entry
    k shifted in the working precision."""
    side, shift = ("f", add) if direction == REWARD_BONUS else ("c", sub)
    with base.ctx.workprec():
        tab = list(getattr(base, side).value_table())
        tab[k] = shift(tab[k], epsilon)
    return tab


def typed(table):
    return [(type(v), getattr(v, "_mpf_", v)) for v in table]


class TestMemberTables:
    @pytest.mark.parametrize("n, bits", [(n, None) for n in range(3, 9)] + [(6, 192), (8, 360)])
    def test_members_equal_the_tuple_body(self, n, bits):
        if bits is None:
            base, side = build_equal_revenue_supmod_c(n), "c"
        else:
            base, side = build_equal_revenue_submod_f(n, precision_bits=bits), "f"
        direction = kind_of(base).direction
        for fam in family_iterator(base):
            member = getattr(fam.instance, side).table
            assert isinstance(member, MpfTable)
            assert typed(member) == typed(tuple_member_body(base, direction, fam.k, fam.epsilon))
        # a float epsilon: an mpf entry stays an mpf, a Fraction one turns float
        k, eps = 3, float(fam.epsilon) / 3
        member = getattr(perturb._perturbed(base, kind_of(base), k, eps).instance, side).table
        assert isinstance(member, MpfTable) == (bits is not None)
        assert typed(member) == typed(tuple_member_body(base, direction, k, eps))


class TestPerturbedInstances:
    def test_reward_bonus_makes_unique_optimum(self):
        base = build_equal_revenue_submod_f(4, precision_bits=128)
        eps = epsilon_bound(base).default_epsilon
        for k in (1, 7, 15):
            fam = make_perturbed(base, k, eps)
            sol = optimal_contract(fam.instance)
            assert sol.set_star.mask == k
            assert len(sol.co_optimal) == 1

    def test_cost_discount_makes_unique_optimum(self):
        base = build_equal_revenue_supmod_c(4)
        eps = epsilon_bound(base).default_epsilon
        for k in (2, 9, 15):
            fam = make_perturbed(base, k, eps)
            sol = optimal_contract(fam.instance)
            assert sol.set_star.mask == k
            assert len(sol.co_optimal) == 1

    def test_only_adjacent_breakpoints_move(self):
        base = build_equal_revenue_supmod_c(4)
        eps = epsilon_bound(base).default_epsilon
        k = 6
        before = enumerate_breakpoints(base)
        after = enumerate_breakpoints(make_perturbed(base, k, eps).instance)
        assert [b.aset.mask for b in before] == [b.aset.mask for b in after]
        for x, y in zip(before, after):
            # exact rationals: the alphas of S_k and S_(k+1) shift, no others
            if x.aset.mask in (k, k + 1):
                assert x.alpha != y.alpha
            else:
                assert x.alpha == y.alpha

    def test_structure_class_preserved(self):
        base = build_equal_revenue_supmod_c(3)
        eps = epsilon_bound(base).default_epsilon
        fam = make_perturbed(base, 4, eps)
        assert strictly_of_class(fam.instance.c)

    def test_k_range_excludes_free_cost_set(self):
        base = build_equal_revenue_supmod_c(3)
        assert valid_k_range(base) == range(2, 8)
        with pytest.raises(BudgetError):
            make_perturbed(base, 1, epsilon_bound(base).default_epsilon)

    def test_reward_k_range_full(self):
        base = build_equal_revenue_submod_f(3)
        assert valid_k_range(base) == range(1, 8)

    def test_epsilon_outside_budget_rejected(self):
        base = build_equal_revenue_supmod_c(3)
        b = epsilon_bound(base)
        with pytest.raises(BudgetError):
            make_perturbed(base, 3, b.epsilon_max * 2)
        with pytest.raises(BudgetError):
            make_perturbed(base, 3, Fraction(0))

    def test_family_iterator_covers_range(self):
        base = build_equal_revenue_supmod_c(3)
        ks = [fam.k for fam in family_iterator(base)]
        assert ks == list(range(2, 8))
        base_f = build_equal_revenue_submod_f(3)
        assert [fam.k for fam in family_iterator(base_f)] == list(range(1, 8))
