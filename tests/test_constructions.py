"""Equal-revenue constructions, structure verification, rounding, gap bounds."""

import itertools
from fractions import Fraction
from math import lcm, sqrt

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from contractlab import commlab, constructions, perturb, sparse
from contractlab.constructions import (
    PrecisionError,
    _alpha_recurrence,
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
    build_rounded,
    chain_gap_bounds,
    check_gap_bounds,
    default_bits_for,
    MAX_RECORDED,
    default_grid_bits,
    marginal_margins,
    verify_equal_revenue,
    verify_structure,
)
from contractlab.core import DECLARED_CLASSES, SetFunctionOracle, _scaled_ints
from contractlab.reals import MpfTable, RealContext, exact
from contractlab.serialize import instance_from_dict, instance_to_dict
from contractlab.solver import chain_alphas, enumerate_breakpoints, optimal_contract

from conftest import (
    brute_submodular,
    brute_supermodular,
    mixed_pairwise_tables,
    mixed_rationals,
    strictly_of_class,
    supmod_c_cost_fractions,
)

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
            assert strictly_of_class(inst.f)
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
        bits = max(default_bits_for(n), 19 * n + 30)  # n = 1 runs at 53 bits
        alphas = _alpha_recurrence(RealContext(bits), 1 << n)
        assert [exact(a) for a in alphas] == [exact(a) for a in mpf_alphas(bits, 1 << n)]
        assert check_gap_bounds(n).violations == chain_gap_bounds(alphas, n).violations
        assert check_gap_bounds(n).ok

    def test_53_bit_alphas_equal_the_native_float_recurrence(self):
        a, floats = 0.0, [0.0]
        for _ in range(1 << 12):
            a = a + (sqrt(4 * a * a - 8 * a + 5) - 1) / 2
            floats.append(a)
        alphas = _alpha_recurrence(RealContext(53), 1 << 12)
        assert [exact(a) for a in alphas] == [exact(a) for a in floats]

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
        assert list(build_equal_revenue_supmod_c(2).c.table) == [
            Fraction(0),
            Fraction(0),
            Fraction(1, 2),
            Fraction(7, 6),
        ]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cost_ints_are_the_fraction_recurrence(self, n):
        # summed as ints over lcm(1..2^n - 1): the same ints and scale as
        # the exact Fractions of the recurrence, over their own LCM
        ints, scale, rational = _scaled_ints(supmod_c_cost_fractions(n))
        assert rational and build_equal_revenue_supmod_c(n).c.scaled() == (
            tuple(ints), scale, True
        )

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
            assert strictly_of_class(inst.c)
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
        for cls in ("submodular", "supermodular"):
            f = SetFunctionOracle(4, weights=[1, 3, 5, 7], declared_class=cls)
            assert verify_structure(f).ok and not strictly_of_class(f)

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
        # the oracle refuses it, also where no class diff exists
        with pytest.raises(ValueError, match="unknown declared_class 'bogus'"):
            SetFunctionOracle(n, table=[0, 1, 1, 2][: 1 << n], declared_class="bogus")

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

    @given(mixed_pairwise_tables())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_match_brute_force(self, nt):
        n, tab = nt
        sub, sup, add = (
            SetFunctionOracle(n, table=tab, declared_class=cls)
            for cls in ("submodular", "supermodular", "additive")
        )
        assert (not verify_structure(sub).class_violations) == brute_submodular(tab, n)
        assert (not verify_structure(sup).class_violations) == brute_supermodular(tab, n)
        assert (not verify_structure(add).class_violations) == (
            brute_submodular(tab, n) and brute_supermodular(tab, n)
        )
        monotone = all(marg >= 0 for _, _, marg, _ in _marginals(tab, n))
        for f in (sub, sup, add):
            assert (not verify_structure(f).monotonicity_violations) == monotone
        # strictly: the class margin is above 0
        for f, brute in ((sub, brute_submodular), (sup, brute_supermodular)):
            assert strictly_of_class(f) == (monotone and brute(tab, n, strict=True))

    @given(mixed_pairwise_tables())
    @settings(max_examples=100, deadline=None)
    def test_recorded_diffs_are_the_entries_own_differences(self, nt):
        n, tab = nt
        for cls in ("submodular", "supermodular", "additive"):
            rep = verify_structure(SetFunctionOracle(n, table=tab, declared_class=cls))
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

    @given(mixed_pairwise_tables(), st.sampled_from(["submodular", "supermodular", "additive"]))
    @settings(max_examples=150, deadline=None)
    def test_report_matches_unscaled_comparison(self, nt, cls):
        n, tab = nt
        rep = verify_structure(SetFunctionOracle(n, table=tab, declared_class=cls))
        mono, klass = [], []
        for m, i, marg, diffs in _marginals(tab, n):
            if marg < 0:
                mono.append((m, i, marg))
            for j, diff in diffs:
                if cls == "additive":
                    bad = diff != 0
                else:
                    bad = (diff if cls == "submodular" else -diff) < 0
                if bad:
                    klass.append((m, i, j, diff))
        assert rep.monotonicity_violations == mono[:MAX_RECORDED]
        assert rep.class_violations == klass[:MAX_RECORDED]


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


def _loop_report(oracle):
    """verify_structure's report from a loop over every (S, i, j) in turn,
    each marginal and diff compared with 0 on the scaled ints and recorded
    as verify_structure records it, up to MAX_RECORDED of each kind."""
    n, cls = oracle.n, oracle.declared_class
    vals, scale, rational = oracle.scaled()
    tab = oracle.value_table()
    mono, klass = [], []
    for m in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if m & bi:
                continue
            marg = vals[m | bi] - vals[m]
            if marg < 0:
                mono.append((m, i + 1, tab[m | bi] - tab[m] if rational else Fraction(marg, scale)))
            if cls == "general-monotone":
                continue
            for j in range(n):
                bj = 1 << j
                if j == i or m & bj:
                    continue
                diff = marg - (vals[m | bj | bi] - vals[m | bj])  # v(i | S) - v(i | S + j)
                bad = {"submodular": diff < 0, "supermodular": diff > 0}.get(cls, diff != 0)
                if bad:
                    if rational:
                        diff = (tab[m | bi] - tab[m]) - (tab[m | bj | bi] - tab[m | bj])
                    else:
                        diff = Fraction(diff, scale)
                    klass.append((m, i + 1, j + 1, diff))
    return mono[:MAX_RECORDED], klass[:MAX_RECORDED]


def _typed(violations):
    """The violations with each entry's type beside it: Fraction(2) == 2."""
    return [[(v, type(v)) for v in entry] for entry in violations]


class TestStructureReport:
    """verify_structure scans only a failing vector, for its first
    violations; the report is the per-(S, i, j) loop's, types included."""

    @staticmethod
    def assert_loop_report(oracle):
        rep = verify_structure(oracle)
        mono, klass = _loop_report(oracle)
        assert _typed(rep.monotonicity_violations) == _typed(mono)
        assert _typed(rep.class_violations) == _typed(klass)

    @given(class_tables(), st.sampled_from([None, *DECLARED_CLASSES]))
    @settings(max_examples=400, deadline=None)
    def test_report_equals_the_loop(self, ntc, cls):
        n, table, built, _ = ntc
        self.assert_loop_report(SetFunctionOracle(n, table=table, declared_class=cls or built))

    def test_every_edge_equals_the_loop(self):
        # marginals w or w - c, class diffs all +-c: each comparison with 0
        # meets 0 exactly somewhere in this sweep
        for sign, c, w in itertools.product((-1, 0, 1), (0, 1, 2), (0, 1, 2)):
            table = [w * k + sign * c * (k * (k - 1) // 2)
                     for k in (m.bit_count() for m in range(8))]
            for cls in DECLARED_CLASSES:
                self.assert_loop_report(SetFunctionOracle(3, table=table, declared_class=cls))

    @pytest.mark.parametrize("kind", ["int", "fraction", "mpf"])
    def test_first_violations_where_every_comparison_fails(self, kind):
        # v(S) = -10 |S| + C(|S|, 2) / 3 at n = 8: every marginal is below 0
        # and every diff is -1/3, so each class but supermodular fails at
        # every (S, i, j), far past MAX_RECORDED in each run of S
        sizes = [m.bit_count() for m in range(256)]
        table = [Fraction(-30 * k + k * (k - 1) // 2, 3) for k in sizes]
        if kind == "int":
            table = [int(3 * v) for v in table]
        elif kind == "mpf":
            table = [RealContext(80).make(v) for v in table]
        for cls in DECLARED_CLASSES:
            oracle = SetFunctionOracle(8, table=table, declared_class=cls)
            rep = verify_structure(oracle)
            assert len(rep.monotonicity_violations) == MAX_RECORDED
            weak = cls in ("supermodular", "general-monotone")
            assert len(rep.class_violations) == (0 if weak else MAX_RECORDED)
            self.assert_loop_report(oracle)

    def test_first_violations_of_one_action(self):
        # weights -10 for action 1 and 10 for the rest at n = 8: all 50
        # recorded violations are action 1's, at its first 50 S
        oracle = SetFunctionOracle(8, weights=[-10] + [10] * 7, declared_class="additive")
        rep = verify_structure(oracle)
        assert rep.monotonicity_violations == [(m, 1, -10) for m in range(0, 100, 2)]
        assert rep.class_violations == []
        self.assert_loop_report(oracle)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_index_getters(self, n):
        # itemgetter with one index returns a scalar; the getters must not
        table = [0, 1, 1, 3][: 1 << n]
        assert strictly_of_class(SetFunctionOracle(n, table=table, declared_class="supermodular"))
        assert marginal_margins(table, n, 0) == (1, -1 if n == 2 else None)
        violations = [(0, 1, 2, -1), (0, 2, 1, -1)] if n == 2 else []
        f = SetFunctionOracle(n, table=table, declared_class="additive")
        assert verify_structure(f).class_violations == violations


@st.composite
def moved_class_tables(draw):
    """(parent, child): a class_tables oracle held as its exact ints, and a
    child (with_entries) with up to four positions moved by whole units
    and by the least step of the scale, or left alone.  A whole unit often
    breaks the class at the moved position; class_tables' own moved entry,
    when it has one, breaks it at the parent's, mostly away from them."""
    n, table, cls, _ = draw(class_tables())
    ints, scale, rational = SetFunctionOracle(n, table=table).scaled()
    parent = SetFunctionOracle(n, table=MpfTable(ints, scale, rational), declared_class=cls)
    ks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4, unique=True))
    kints = [ints[k] + draw(st.integers(-2, 2)) * scale + draw(st.integers(-1, 1)) for k in ks]
    return parent, parent.with_entries(ks, kints, scale, "moved")


def _full_passes(monkeypatch):
    """A list that gets one entry per full verify_structure pass."""
    calls = []
    original = constructions._marginal_vectors

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(constructions, "_marginal_vectors", counted)
    return calls


class TestLocalStructureCheck:
    """A child oracle is checked at its moved positions against its
    parent's kept verdict; the report is the full pass's either way."""

    @given(moved_class_tables())
    @settings(max_examples=400, deadline=None)
    def test_report_equals_the_full_pass(self, pair):
        parent, child = pair
        cls = child.declared_class
        full = SetFunctionOracle(child.n, table=child.table, declared_class=cls)
        assert full.origin is None
        rep = verify_structure(child)
        assert _typed(rep.monotonicity_violations) == _typed(verify_structure(full).monotonicity_violations)
        assert _typed(rep.class_violations) == _typed(verify_structure(full).class_violations)
        TestStructureReport.assert_loop_report(child)
        assert parent.verdict == (cls, verify_structure(parent).ok)

    @staticmethod
    def pair(moves=((5, 1),), scale=1 << 80):
        """A strictly submodular parent over n = 3 (weights 4, C(|S|, 2)
        subtracted) as ints over scale, and its child with entry m raised
        by d units for each (m, d) of moves."""
        table = [(4 * k - k * (k - 1) // 2) * scale for k in (m.bit_count() for m in range(8))]
        parent = SetFunctionOracle(3, table=MpfTable(table, scale, True),
                                   declared_class="submodular")
        ks = tuple(m for m, _ in moves)
        return parent, parent.with_entries(ks, [table[m] + d * scale for m, d in moves], scale, "c")

    def test_a_warm_parent_takes_no_full_pass(self, monkeypatch):
        parent, child = self.pair()
        assert verify_structure(parent).ok and parent.verdict is None
        calls = _full_passes(monkeypatch)
        assert verify_structure(child).ok and len(calls) == 1  # the parent's, on first use
        assert parent.verdict == ("submodular", True)
        assert verify_structure(self.pair()[1]).ok  # another parent: its own first pass
        calls.clear()
        for m, d in ((0, 0), (7, 1), (3, -1)):
            other = parent.with_entries((m,), (parent.scaled()[0][m] + d,), parent.scaled()[1], "c")
            assert verify_structure(other).ok
        assert calls == []

    def test_a_violation_at_a_moved_position_runs_the_full_pass(self, monkeypatch):
        parent, child = self.pair(((7, 3),))  # f(all) up by 3: not submodular
        verify_structure(self.pair()[1])
        verify_structure(parent.with_entries((), (), parent.scaled()[1], "same"))
        calls = _full_passes(monkeypatch)
        rep = verify_structure(child)
        assert not rep.ok and len(calls) == 1
        TestStructureReport.assert_loop_report(child)

    def test_a_parent_not_ok_runs_the_full_pass(self, monkeypatch):
        parent, _ = self.pair()
        ints, scale, _ = parent.scaled()
        broken = parent.with_entries((7,), (ints[7] + 3 * scale,), scale, "broken")
        child = broken.with_entries((1,), (ints[1] + 1,), scale, "child")
        calls = _full_passes(monkeypatch)
        assert not verify_structure(child).ok
        assert broken.verdict == ("submodular", False)
        # broken's verdict reads its own parent's first (a full pass), fails
        # its local check (a full pass); then the child's full pass
        assert len(calls) == 3
        calls.clear()
        assert not verify_structure(child).ok and len(calls) == 1

    def test_another_scale_runs_the_full_pass(self, monkeypatch):
        parent, _ = self.pair()
        ints, scale, _ = parent.scaled()
        child = parent.with_entries((5,), (2 * ints[5] + 1,), 2 * scale, "doubled")
        calls = _full_passes(monkeypatch)
        assert verify_structure(child).ok and child.moved_from(parent) is None
        assert len(calls) == 1 and parent.verdict is None  # the child's full pass alone

    def test_an_int_not_the_parents_own_runs_the_full_pass(self, monkeypatch):
        parent, child = self.pair()
        ints, scale, _ = parent.scaled()
        parent.table = MpfTable([v + (1 << 90) - (1 << 90) for v in ints], scale, True)
        assert parent.verdict is None and child.origin[0] is parent
        calls = _full_passes(monkeypatch)
        assert verify_structure(child).ok and child.moved_from(parent) is None
        assert len(calls) == 1 and parent.verdict is None

    def test_a_set_table_drops_origin_form_and_verdict(self):
        parent, child = self.pair()
        verify_structure(child)
        assert parent.verdict is not None and child.origin is not None
        parent.table = parent.table
        child.table = child.table
        assert parent.verdict is None and child.origin is None

    def test_another_class_is_checked_afresh(self):
        parent, child = self.pair(((7, 3),))  # submodular breaks, supermodular does not hold
        verify_structure(child)
        child.declared_class = "general-monotone"
        assert verify_structure(child).ok  # no kept verdict read across classes
        parent.declared_class = "general-monotone"
        assert verify_structure(child).ok and parent.verdict == ("general-monotone", True)


class TestExactStructureCheckOnRoundedTables:
    """Float and mpf tables are compared exactly, as their scaled ints."""

    @pytest.mark.parametrize("cls", ["submodular", "supermodular"])
    def test_mpf_report_independent_of_ambient_precision(self, cls):
        inst = build_equal_revenue_submod_f(4, precision_bits=192)
        f = SetFunctionOracle(4, table=MpfTable(*inst.f.scaled()), declared_class=cls)
        reports = []
        for prec in (53, 400):
            with mpmath.workprec(prec):
                reports.append(verify_structure(f))
        assert reports[0] == reports[1]
        # the same report as on the table's exact values
        exact_f = SetFunctionOracle(4, table=[exact(v) for v in f.value_table()], declared_class=cls)
        assert reports[0] == verify_structure(exact_f)
        assert reports[0].ok == (cls == "submodular")
        assert len(reports[0].class_violations) == (0 if cls == "submodular" else 48)

    def test_float_violation_that_subtraction_rounds_away(self):
        # v(1 | {2}) is 2^60 + 257 exactly, but 2^60 + 256 in float
        # arithmetic, so the float diff at (empty set, 1, 2) is 0.0 where
        # the exact diff is -1
        tab = [0.0, 2.0**60 + 256, 255.0, 2.0**60 + 512]
        assert (tab[1] - tab[0]) - (tab[3] - tab[2]) == 0.0
        rep = verify_structure(SetFunctionOracle(2, table=tab, declared_class="submodular"))
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


def kindless_submod_f():
    base = build_equal_revenue_submod_f(4)
    del base.meta["kind"]  # its closed-form chain stays kept
    return base


ONES4 = commlab.SpecialSetVector.all_ones(4)


class TestNoKnownKind:
    """Every entry point that acts on an equal-revenue base refuses any other
    instance with kind_of's one message, a kept chain notwithstanding."""

    ENTRY_POINTS = {
        "chain_alphas": chain_alphas,
        "epsilon_bound": perturb.epsilon_bound,
        "make_perturbed": lambda base: perturb.make_perturbed(base, 1, Fraction(1, 10**9)),
        "family_iterator": lambda base: next(perturb.family_iterator(base)),
        "simulate_family": lambda base: next(sparse.simulate_family(base, [], lambda k: [])),
        "value_query_experiment": lambda base: sparse.value_query_experiment(base, 1),
        "build_augmented": lambda base: commlab.build_augmented("sub-sub", base, ONES4, ONES4),
    }
    BASES = {"rounded": lambda: build_rounded(4).instance, "kindless": kindless_submod_f}

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("base", list(BASES))
    def test_refused_with_one_message(self, entry, base):
        message = "^base is not a recognized equal-revenue construction$"
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](self.BASES[base]())


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
