"""Equal-revenue constructions, structure verification, rounding, gap bounds."""

import itertools
from fractions import Fraction
from math import lcm
from unittest import mock

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from contractlab import constructions
from contractlab.constructions import (
    PrecisionError,
    _alpha_recurrence,
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
    build_rounded,
    chain_gap_bounds,
    check_gap_bounds,
    default_bits_for,
    default_grid_bits,
    marginal_margins,
    supmod_c_cost_fractions,
    verify_equal_revenue,
    verify_structure,
)
from contractlab.core import DECLARED_CLASSES, SetFunctionOracle
from contractlab.reals import RealContext, exact
from contractlab.serialize import instance_from_dict, instance_to_dict
from contractlab.solver import chain_alphas, enumerate_breakpoints, optimal_contract

from conftest import brute_submodular, brute_supermodular, mixed_pairwise_tables, mixed_rationals

# frozen goldens, derived once from the closed forms and pinned
GOLDEN_N3_ALPHAS = [0.0, 0.618, 0.747, 0.807, 0.843, 0.867, 0.885, 0.898]
GOLDEN_N3_F = [1.0, 2.618, 3.956, 5.195, 6.381, 7.534, 8.664, 9.778]


class TestSubmodFBase:
    def test_n3_breakpoint_goldens(self):
        inst = build_equal_revenue_submod_f(3)
        table = enumerate_breakpoints(inst)
        assert len(table) == 8
        assert [round(float(b.alpha), 3) for b in table] == GOLDEN_N3_ALPHAS
        assert [round(float(b.f_value), 3) for b in table] == GOLDEN_N3_F
        # chain order: breakpoint t incentivizes the index-t subset
        assert [b.aset.mask for b in table] == list(range(8))

    def test_equal_revenue_within_1e9(self):
        for n in (2, 4, 6):
            inst = build_equal_revenue_submod_f(n)
            rep = verify_equal_revenue(inst, 1e-9)
            assert rep.ok, (n, float(rep.max_deviation))
            assert rep.breakpoint_count == (1 << n) - 1

    def test_reward_is_strictly_submodular(self):
        for n in (2, 3, 4):
            inst = build_equal_revenue_submod_f(n)
            assert verify_structure(inst.f, strict=True).ok
            assert brute_submodular(inst.f.value_table(), n, strict=True)

    def test_costs_are_binary_weights(self):
        inst = build_equal_revenue_submod_f(4)
        assert inst.c.weights == [1, 2, 4, 8]
        assert inst.c.table[0b1010] == 10

    def test_meta_alphas_are_the_tables_critical_values(self):
        # alpha_table is the hull's own alphas, value for value and type for
        # type, on both kinds, and a loaded instance derives it again from
        # the tables on first use
        for inst in (
            build_equal_revenue_submod_f(4),
            build_equal_revenue_submod_f(4, precision_bits=192),
            build_equal_revenue_supmod_c(4),
        ):
            back = instance_from_dict(instance_to_dict(inst))
            for x in (inst, back):
                alphas = [b.alpha for b in enumerate_breakpoints(x)]
                assert [(type(a), a) for a in chain_alphas(x)] == [
                    (type(a), a) for a in alphas
                ]
            assert chain_alphas(back) == inst.meta["alpha_table"]

    def test_low_precision_collides(self):
        # 24-bit mantissas cannot separate 2^14 - 1 chain values near 1
        with pytest.raises(PrecisionError):
            build_equal_revenue_submod_f(14, precision_bits=24)

    def test_all_breakpoints_co_optimal(self):
        inst = build_equal_revenue_submod_f(3)
        sol = optimal_contract(inst)
        assert len(sol.co_optimal) == 8


def mpf_submod_f(n: int, bits: int):
    """The reference: the f recurrence and its critical values in mpmath
    arithmetic at bits, every operation an mpf one."""
    with mpmath.workprec(bits):
        ftab = [mpmath.mpf(1)]
        for _ in range((1 << n) - 1):
            f = ftab[-1]
            ftab.append((f + 2 + mpmath.sqrt(f * f + 4)) / 2)
        return ftab, [0] + [1 / (ftab[t] - ftab[t - 1]) for t in range(1, len(ftab))]


def mpf_alphas(bits: int, steps: int):
    """The reference alpha recurrence in mpmath arithmetic at bits."""
    with mpmath.workprec(bits):
        a = mpmath.mpf(0)
        alphas = [a]
        for _ in range(steps):
            a = a + (mpmath.sqrt(4 * a * a - 8 * a + 5) - 1) / 2
            alphas.append(a)
    return alphas


def raw(values):
    """Each entry's (type, mpf tuple), or the entry itself if not an mpf."""
    return [(type(x), x._mpf_) if isinstance(x, mpmath.mpf) else (type(x), x) for x in values]


class TestIntRecurrences:
    """The recurrences run on rounded ints; every entry must be the mpf the
    reference computes, tuple for tuple, and fail where the reference fails."""

    @pytest.mark.parametrize(
        "n, bits",
        [(4, 192), (6, 192), (8, 64), (9, 100), (10, 256), (11, 330), (12, 360), (14, 420)],
    )
    def test_submod_f_tables_equal_the_mpf_recurrence(self, n, bits):
        inst = build_equal_revenue_submod_f(n, precision_bits=bits)
        ftab, alphas = mpf_submod_f(n, bits)
        assert raw(inst.f.value_table()) == raw(ftab)
        assert raw(inst.meta["alpha_table"]) == raw(alphas)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_gap_bound_alphas_equal_the_mpf_recurrence(self, n):
        bits = max(default_bits_for(n), 19 * n + 30)  # n = 1 runs in floats
        ctx = RealContext(bits)
        alphas = _alpha_recurrence(ctx, 1 << n)
        if ctx.native:
            assert all(type(a) is float for a in alphas)
            assert alphas == [float(a) for a in mpf_alphas(bits, 1 << n)]
        else:
            assert raw(alphas) == raw(mpf_alphas(bits, 1 << n))
        assert check_gap_bounds(n).violations == chain_gap_bounds(alphas, n).violations

    @pytest.mark.parametrize("n, kappa", [(2, None), (3, None), (5, None), (4, 100)])
    def test_rounded_equals_the_mpf_recurrence(self, n, kappa):
        r = build_rounded(n, grid_bits=kappa)
        bits, scale = r.instance.precision_bits, 1 << r.grid_bits
        with mpmath.workprec(bits):
            rounded = [mpmath.floor(a * scale) / scale for a in mpf_alphas(bits, (1 << n) - 1)]
            ftab = [1 / (1 - a) for a in rounded]
        assert raw(r.alpha_rounded) == raw(rounded)
        assert raw(r.instance.f.value_table()) == raw(ftab)

    @pytest.mark.parametrize("n, bits, t", [(12, 30, 819), (14, 40, 8183)])
    def test_collision_at_the_reference_t(self, n, bits, t):
        _, alphas = mpf_submod_f(n, bits)
        with mpmath.workprec(bits):
            first = next(s for s in range(len(alphas) - 1) if not alphas[s] < alphas[s + 1])
        assert first == t
        message = (
            f"adjacent critical values collide at t={t}; "
            f"need roughly {18 * n + 20} mantissa bits, have {bits}"
        )
        with pytest.raises(PrecisionError) as exc:
            build_equal_revenue_submod_f(n, precision_bits=bits)
        assert str(exc.value) == message


class TestSupmodCBase:
    def test_n2_cost_column(self):
        assert supmod_c_cost_fractions(2) == [
            Fraction(0),
            Fraction(0),
            Fraction(1, 2),
            Fraction(7, 6),
        ]

    def test_alphas_are_t_minus_1_over_t(self):
        inst = build_equal_revenue_supmod_c(3)
        assert inst.meta["alpha_table"] == [Fraction(t - 1, t) for t in range(1, 8)]

    def test_equal_revenue_exact(self):
        for n in (2, 3, 4):
            inst = build_equal_revenue_supmod_c(n)
            rep = verify_equal_revenue(inst, 0)
            assert rep.ok
            assert rep.max_deviation == 0

    def test_cost_is_strictly_supermodular_weak_monotone(self):
        for n in (2, 3, 4):
            inst = build_equal_revenue_supmod_c(n)
            assert verify_structure(inst.c, strict=True).ok
            assert brute_supermodular(inst.c.value_table(), n, strict=True)
            # c(S_1) = 0 = c(empty): the least marginal is 0, so strictly
            # monotone it is not
            assert marginal_margins(inst.c.scaled()[0], n, None) == (0, None)

    def test_rewards_additive_binary(self):
        inst = build_equal_revenue_supmod_c(3)
        assert inst.f.weights == [1, 2, 4]
        assert inst.f.table[0b111] == 7

    def test_first_breakpoint_alpha_zero_incentivizes_s1(self):
        inst = build_equal_revenue_supmod_c(3)
        table = enumerate_breakpoints(inst)
        assert table[0].alpha == 0
        assert table[0].aset.mask == 1
        assert table[0].agent_utility == 0
        assert len(table) == 7


class TestVerifyStructure:
    def test_additive_passes_both_weak_classes(self):
        f = SetFunctionOracle(4, weights=[1, 3, 5, 7], declared_class="additive")
        assert verify_structure(f, declared_class="submodular").ok
        assert verify_structure(f, declared_class="supermodular").ok
        assert not verify_structure(f, declared_class="submodular", strict=True).ok

    def test_detects_violations(self):
        # f({1,2}) too large: submodularity broken
        f = SetFunctionOracle(2, table=[0, 1, 1, 5], declared_class="submodular")
        rep = verify_structure(f)
        assert not rep.ok and rep.class_violations

    def test_detects_non_monotone(self):
        f = SetFunctionOracle(2, table=[0, 2, 1, 0], declared_class="general-monotone")
        assert not verify_structure(f).ok

    @pytest.mark.parametrize("n", [1, 2])
    def test_unknown_class_refused(self, n):
        # refused before any comparison, also where no class diff exists
        f = SetFunctionOracle(n, table=[0, 1, 1, 2][: 1 << n])
        with pytest.raises(ValueError, match="unknown class 'bogus'"):
            verify_structure(f, "bogus")

    def test_matches_brute_force_on_goldens(self):
        inst = build_equal_revenue_submod_f(4)
        tab = inst.f.value_table()
        assert verify_structure(inst.f).ok == brute_submodular(tab, 4)


def _marginals(tab, n):
    """(m, i, marginal, j-diffs) in verify_structure's visiting order, from
    the table's own entries: j-diffs lists (j, diff) for every j != i."""
    out = []
    for m in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if m & bi:
                continue
            marg = tab[m | bi] - tab[m]
            diffs = [
                (j + 1, marg - (tab[m | 1 << j | bi] - tab[m | 1 << j]))
                for j in range(n)
                if j != i and not m >> j & 1
            ]
            out.append((m, i + 1, marg, diffs))
    return out


class TestScaledStructureCheck:
    """int/Fraction tables are checked as ints over one common denominator."""

    @given(mixed_pairwise_tables(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_match_brute_force(self, nt, strict):
        n, tab = nt
        f = SetFunctionOracle(n, table=tab)
        sub = verify_structure(f, "submodular", strict)
        sup = verify_structure(f, "supermodular", strict)
        add = verify_structure(f, "additive", strict)
        assert (not sub.class_violations) == brute_submodular(tab, n, strict=strict)
        assert (not sup.class_violations) == brute_supermodular(tab, n, strict=strict)
        assert (not add.class_violations) == (
            brute_submodular(tab, n) and brute_supermodular(tab, n)
        )
        monotone = all(marg >= 0 for _, _, marg, _ in _marginals(tab, n))
        for rep in (sub, sup, add):
            assert (not rep.monotonicity_violations) == monotone

    @given(mixed_pairwise_tables())
    @settings(max_examples=100, deadline=None)
    def test_recorded_diffs_are_the_entries_own_differences(self, nt):
        n, tab = nt
        f = SetFunctionOracle(n, table=tab)
        for cls in ("submodular", "supermodular"):
            rep = verify_structure(f, cls, strict=True)
            for m, i, marg in rep.monotonicity_violations:
                bi = 1 << (i - 1)
                assert marg == Fraction(tab[m | bi]) - Fraction(tab[m])
            for m, i, j, diff in rep.class_violations:
                bi, bj = 1 << (i - 1), 1 << (j - 1)
                four = (m | bi, m, m | bj | bi, m | bj)
                a, b, c, d = (Fraction(tab[k]) for k in four)
                assert diff == (a - b) - (c - d)
                # computed in the table's arithmetic: an int only from ints
                assert isinstance(diff, int) == all(isinstance(tab[k], int) for k in four)

    @given(
        mixed_pairwise_tables(),
        st.sampled_from(["submodular", "supermodular", "additive"]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_matches_unscaled_comparison(self, nt, cls, strict):
        n, tab = nt
        rep = verify_structure(SetFunctionOracle(n, table=tab), cls, strict)
        mono, klass = [], []
        for m, i, marg, diffs in _marginals(tab, n):
            if marg < 0:
                mono.append((m, i, marg))
            for j, diff in diffs:
                if cls == "additive":
                    bad = diff != 0
                else:
                    d = diff if cls == "submodular" else -diff
                    bad = d <= 0 if strict else d < 0
                if bad:
                    klass.append((m, i, j, diff))
        assert rep.monotonicity_violations == mono[: rep.max_recorded]
        assert rep.class_violations == klass[: rep.max_recorded]


@st.composite
def class_tables(draw):
    """(n, table, cls, c): sum of w_i over S plus +-c C(|S|, 2), weakly of
    class cls (every class diff is +-c, so ties where c is 0) and monotone,
    in ints, Fractions, floats or 80-bit mpfs (the last two rounded), with
    at most one entry moved off it."""
    n = draw(st.integers(1, 7))
    cls = draw(st.sampled_from(DECLARED_CLASSES))
    sign = {"submodular": -1, "supermodular": 1, "additive": 0}.get(cls)
    if sign is None:
        sign = draw(st.sampled_from([-1, 0, 1]))
    c = draw(mixed_rationals(0, 2))
    w = [draw(mixed_rationals(0, 4)) + (c * (n - 1) if sign < 0 else 0) for _ in range(n)]
    table = [
        sum(w[i] for i in range(n) if m >> i & 1) + sign * c * (k * (k - 1) // 2)
        for m, k in ((m, m.bit_count()) for m in range(1 << n))
    ]
    if draw(st.booleans()):
        m = draw(st.integers(0, (1 << n) - 1))
        table[m] += draw(st.sampled_from([-2, -1, Fraction(-1, 3), Fraction(1, 7), 1]))
    kind = draw(st.sampled_from(["int", "fraction", "float", "mpf"]))
    if kind == "int":
        scale = lcm(*(Fraction(v).denominator for v in table))
        table = [int(v * scale) for v in table]
    elif kind == "float":
        table = [float(v) for v in table]
    elif kind == "mpf":
        table = [RealContext(80).make(Fraction(v)) for v in table]
    return n, table, cls, c


class TestStructureFastPath:
    """The whole-vector check decides alone only when the recording loop
    would find nothing, so every report is the loop's own."""

    @staticmethod
    def assert_loop_report(oracle, cls, strict):
        verdicts = []
        holds = constructions._holds

        def recorded(*args):
            verdicts.append(holds(*args))
            return verdicts[-1]

        with mock.patch.object(constructions, "_holds", recorded):
            got = verify_structure(oracle, cls, strict)
        with mock.patch.object(constructions, "_holds", lambda *args: False):
            want = verify_structure(oracle, cls, strict)
        assert got == want
        # the loop runs exactly when there is a violation to record
        assert verdicts == [want.ok]

    @given(class_tables(), st.sampled_from([None, *DECLARED_CLASSES]), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_report_equals_recording_loop(self, ntc, cls, strict):
        n, table, built, _ = ntc
        oracle = SetFunctionOracle(n, table=table)
        self.assert_loop_report(oracle, cls or built, strict)

    def test_every_edge_equals_recording_loop(self):
        # marginals w or w - c, class diffs all +-c: each comparison of the
        # fast path meets 0 exactly somewhere in this sweep
        for sign, c, w in itertools.product((-1, 0, 1), (0, 1, 2), (0, 1, 2)):
            table = [w * k + sign * c * (k * (k - 1) // 2)
                     for k in (m.bit_count() for m in range(8))]
            oracle = SetFunctionOracle(3, table=table)
            for args in itertools.product(DECLARED_CLASSES, (False, True)):
                self.assert_loop_report(oracle, *args)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_index_getters(self, n):
        # itemgetter with one index returns a scalar; the getters must not
        f = SetFunctionOracle(n, table=[0, 1, 1, 3][: 1 << n])
        assert verify_structure(f, "supermodular", strict=True).ok
        assert marginal_margins(f.table, n, 0) == (1, -1 if n == 2 else None)
        violations = [(0, 1, 2, -1), (0, 2, 1, -1)] if n == 2 else []
        assert verify_structure(f, "additive").class_violations == violations


class TestExactStructureCheckOnRoundedTables:
    """Float and mpf tables are compared exactly, as their scaled ints."""

    @pytest.mark.parametrize("cls", ["submodular", "supermodular"])
    def test_mpf_report_independent_of_ambient_precision(self, cls):
        inst = build_equal_revenue_submod_f(4, precision_bits=192)
        reports = []
        for prec in (53, 400):
            with mpmath.workprec(prec):
                reports.append(verify_structure(inst.f, cls, strict=True))
        assert reports[0] == reports[1]
        # the same report as on the table's exact values
        exact_f = SetFunctionOracle(4, table=[exact(v) for v in inst.f.value_table()])
        assert reports[0] == verify_structure(exact_f, cls, strict=True)
        assert reports[0].ok == (cls == "submodular")
        assert len(reports[0].class_violations) == (0 if cls == "submodular" else 48)

    def test_float_violation_that_subtraction_rounds_away(self):
        # v(1 | {2}) is 2^60 + 257 exactly, but 2^60 + 256 in float
        # arithmetic, so the float diff at (empty set, 1, 2) is 0.0 where
        # the exact diff is -1
        tab = [0.0, 2.0**60 + 256, 255.0, 2.0**60 + 512]
        assert (tab[1] - tab[0]) - (tab[3] - tab[2]) == 0.0
        rep = verify_structure(SetFunctionOracle(2, table=tab), "submodular")
        assert rep.monotonicity_violations == []
        assert rep.class_violations == [(0, 1, 2, Fraction(-1)), (0, 2, 1, Fraction(-1))]


class TestRounded:
    @pytest.mark.parametrize("n", [2, 3])
    def test_grid_membership_and_distinct_betas(self, n):
        r = build_rounded(n)
        scale = 1 << r.grid_bits
        with r.instance.ctx.workprec():
            for a in r.alpha_rounded:
                assert a * scale == int(a * scale)
            assert all(x < y for x, y in zip(r.betas, r.betas[1:]))

    def test_revenue_within_tolerance(self):
        r = build_rounded(3)
        tol = r.revenue_tolerance
        table = enumerate_breakpoints(r.instance)
        with r.instance.ctx.workprec():
            for b in table:
                if b.aset.mask:
                    assert abs(b.principal_utility - 1) <= tol

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            build_rounded(3, grid_bits=10)

    def test_default_grid_bits(self):
        assert default_grid_bits(1) == 38
        assert default_grid_bits(10) == 200
        assert default_grid_bits(20) == 400


class TestGapBounds:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bounds_hold(self, n):
        assert check_gap_bounds(n).ok

    @pytest.mark.parametrize("n, bits", [(2, None), (5, None), (8, None), (4, 192)])
    def test_bounds_hold_on_the_constructions_own_alphas(self, n, bits):
        inst = build_equal_revenue_submod_f(n, precision_bits=bits)
        assert chain_gap_bounds(chain_alphas(inst), n).ok

    def test_bounds_are_exact(self):
        # a_1 = 1/2 and (1 - a_1)^3 = 1/8: a gap of exactly 1/8 breaks the
        # strict cube bound, one of 1/8 + 2^-80 does not; 1 - a = 2^-12
        # meets the n = 2 distance floor exactly, 1 - a = 2^-12 - 2^-80 not
        tiny = Fraction(1, 1 << 80)
        half, floor = Fraction(1, 2), Fraction(1, 1 << 12)
        assert chain_gap_bounds([0, half, half + Fraction(1, 8)], 2).violations == [
            (1, "cube lower bound")
        ]
        assert chain_gap_bounds([0, half, half + Fraction(1, 8) + tiny], 2).ok
        assert chain_gap_bounds([0, 1 - floor], 2).ok
        assert chain_gap_bounds([0, 1 - floor + tiny], 2).violations == [
            (1, "distance-from-1 floor")
        ]
