"""Breakpoint enumeration, optimal contracts, and the approximation scheme."""

import math
import random
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from contractlab import core, reals, solver
from contractlab.constructions import build_equal_revenue_submod_f, build_equal_revenue_supmod_c
from contractlab.reals import MpfTable, RealContext, exact
from contractlab.serialize import number_to_str
from contractlab.solver import (
    ParameterError,
    alpha_bracket,
    enumerate_breakpoints,
    fptas,
    optimal_contract,
)

from conftest import (
    brute_best_response,
    brute_breakpoints,
    instance_from_tables,
    mixed_monotone_instance_tables,
    monotone_instance_tables,
    non_monotone_tables,
    random_monotone_tables,
    real_monotone_instance_tables,
    reference_fptas,
)


# frozen goldens for the worked 2-action example:
# f = (0, 2, 4, 5), c = (0, 1, 2, 4) -> breakpoints at alpha 0, 1/2
GOLDEN_F = [Fraction(0), Fraction(2), Fraction(4), Fraction(5)]
GOLDEN_C = [Fraction(0), Fraction(1), Fraction(2), Fraction(4)]


class TestEnumeration:
    @given(st.one_of(monotone_instance_tables(), mixed_monotone_instance_tables()))
    @settings(max_examples=160, deadline=None)
    def test_hull_equals_brute_force(self, tables):
        # on int/Fraction tables every alpha after the first is an exact
        # Fraction, also where both differences are plain ints
        n, ftab, ctab = tables
        table = enumerate_breakpoints(instance_from_tables(ftab, ctab))
        want = brute_breakpoints(ftab, ctab)
        assert [b.aset.mask for b in table] == [m for _, m in want]
        assert [b.alpha for b in table] == [a for a, _ in want]
        assert [type(b.alpha) for b in table] == [int] + [Fraction] * (len(want) - 1)

    @given(st.sampled_from([53, 80, 192]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_hull_equals_brute_force_on_rounded_tables(self, bits, data):
        # float and mpf tables: the sets are the exact ones; each alpha is
        # the entries' own quotient, so within a few ulps of the exact slope
        n, ftab, ctab = data.draw(real_monotone_instance_tables(bits))
        table = enumerate_breakpoints(instance_from_tables(ftab, ctab, bits))
        want = brute_breakpoints(ftab, ctab)
        assert [b.aset.mask for b in table] == [m for _, m in want]
        for b, (a, _) in zip(table, want):
            assert abs(exact(b.alpha) - a) <= a / (1 << (bits - 3))

    def test_rounded_alphas_may_tie(self):
        # tenths summed at 80 bits: edges 8 -> 12 -> 11 have slope 1 in
        # decimal, just below 1 in the rounded entries, so both are critical
        # values, and both alphas round to the one mpf below 1; the exact
        # slopes still rise
        tenths_f = [0, 1, 1, 2, 1, 2, 2, 3, 39, 78, 40, 102, 56, 79, 57, 103]
        tenths_c = [0, 0, 0, 0, 0, 0, 0, 0, 32, 71, 33, 95, 49, 72, 50, 96]
        ctx = reals.RealContext(80)
        ftab, ctab = [ctx.make(0)] * 16, [ctx.make(0)] * 16
        with ctx.workprec():
            for tab, tenths in ((ftab, tenths_f), (ctab, tenths_c)):
                for m in range(1, 16):
                    below = [m & ~(1 << i) for i in range(4) if m >> i & 1]
                    incr = tenths[m] - max(tenths[s] for s in below)
                    tab[m] = max(tab[s] for s in below) + ctx.make(Fraction(incr, 10))
        table = enumerate_breakpoints(instance_from_tables(ftab, ctab, 80))
        want = brute_breakpoints(ftab, ctab)
        assert [b.aset.mask for b in table] == [m for _, m in want] == [7, 8, 12, 11]
        assert want[2][0] < want[3][0] < 1
        assert table[2].alpha == table[3].alpha < 1

    @given(monotone_instance_tables(max_n=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_probe(self, tables):
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab)
        table = enumerate_breakpoints(inst)
        want = brute_breakpoints(ftab, ctab)
        assert [b.aset.mask for b in table] == [m for _, m in want]
        assert [b.alpha for b in table] == [a for a, _ in want]

    @given(monotone_instance_tables())
    @settings(max_examples=50, deadline=None)
    def test_table_invariants(self, tables):
        n, ftab, ctab = tables
        table = enumerate_breakpoints(instance_from_tables(ftab, ctab))
        assert table[0].alpha == 0
        alphas = [b.alpha for b in table]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        fs = [b.f_value for b in table]
        assert all(a < b for a, b in zip(fs, fs[1:]))
        assert len(table) <= 1 << n

    @given(monotone_instance_tables(max_n=3))
    @settings(max_examples=40, deadline=None)
    def test_breakpoint_set_is_best_response_just_above(self, tables):
        """Each breakpoint's set is the best response slightly above its alpha."""
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab)
        table = enumerate_breakpoints(inst)
        alphas = [b.alpha for b in table] + [Fraction(1)]
        for b, nxt in zip(table, alphas[1:]):
            mid = (Fraction(b.alpha) + Fraction(nxt)) / 2
            assert brute_best_response(ftab, ctab, mid) == b.aset.mask

    def test_worked_example(self):
        inst = instance_from_tables(GOLDEN_F, GOLDEN_C)
        table = enumerate_breakpoints(inst)
        assert [(b.alpha, b.aset.mask) for b in table] == [
            (0, 0b00),
            (Fraction(1, 2), 0b10),
        ]
        # {1,2} is never incentivized: its slope vs {2} is 2 >= 1

    def test_int_tables_give_exact_alphas(self):
        inst = instance_from_tables([0, 3, 3, 7], [0, 1, 1, 4])
        sol = optimal_contract(inst)
        alphas = [b.alpha for b in enumerate_breakpoints(inst)]
        assert alphas == [0, Fraction(1, 3), Fraction(3, 4)]
        assert all(type(a) is Fraction for a in alphas[1:])
        assert sol.alpha_star == Fraction(1, 3)
        assert sol.principal_utility == 2 and type(sol.principal_utility) is Fraction

    def test_unknown_method(self):
        inst = instance_from_tables(GOLDEN_F, GOLDEN_C)
        for method in ("magic", "scan", "auto"):
            with pytest.raises(ParameterError):
                enumerate_breakpoints(inst, method=method)


class TestOptimalContract:
    def test_picks_max_revenue_breakpoint(self):
        inst = instance_from_tables(GOLDEN_F, GOLDEN_C)
        sol = optimal_contract(inst)
        # candidates: alpha=0 keeps 0*? -> (1-0)*f(empty)=0; alpha=1/2 keeps 2
        assert sol.alpha_star == Fraction(1, 2)
        assert sol.set_star.mask == 0b10
        assert sol.principal_utility == 2

    def test_canonical_answer_is_smallest_alpha(self):
        # two breakpoints with identical revenue 2: alpha=1/2 on f=4 and alpha=3/4 on f=8
        ftab = [Fraction(0), Fraction(4), Fraction(8), Fraction(9)]
        ctab = [Fraction(0), Fraction(2), Fraction(5), Fraction(9)]
        inst = instance_from_tables(ftab, ctab)
        sol = optimal_contract(inst)
        assert sol.alpha_star == Fraction(1, 2)
        assert len(sol.co_optimal) == 2

    @given(monotone_instance_tables(max_n=3))
    @settings(max_examples=40, deadline=None)
    def test_dominates_every_breakpoint(self, tables):
        n, ftab, ctab = tables
        inst = instance_from_tables(ftab, ctab)
        sol = optimal_contract(inst)
        for b in enumerate_breakpoints(inst):
            assert sol.principal_utility >= b.principal_utility

    @given(mixed_monotone_instance_tables(max_n=3), st.sampled_from([24, 53, 80]))
    @settings(max_examples=80, deadline=None)
    def test_all_maximizers_use_exact_tolerance(self, tables, bits):
        # every breakpoint within tau = 2^-(bits // 2) of the best, compared
        # exactly; above 53 bits tau is an mpf, which no Fraction compares with
        n, ftab, ctab = tables
        sol = optimal_contract(instance_from_tables(ftab, ctab, bits))
        tau = Fraction(1, 1 << (bits // 2))
        utils = [(1 - a) * exact(ftab[m]) for a, m in brute_breakpoints(ftab, ctab)]
        want = [t for t, u in enumerate(utils) if max(utils) - u <= tau]
        assert sol.co_optimal == want

    @pytest.mark.parametrize("extra, count", [(0, 2), (Fraction(1, 1 << 40), 1)])
    def test_tolerance_edge_is_exact(self, extra, count):
        # at 24 bits tau = 2^-12: S_2 pays 2 - 2^-12 - 2 extra against S_1's 2
        ctab = [0, 2, 5 + Fraction(1, 1 << 13) + extra, 9]
        inst = instance_from_tables([0, 4, 8, 9], ctab, bits=24)
        sol = optimal_contract(inst)
        table = enumerate_breakpoints(inst)
        assert [table[t].aset.mask for t in sol.co_optimal] == [1, 2][:count]

    @given(st.sampled_from(["float", "mpf80", "mpf192", "rational"]), st.data())
    @settings(max_examples=160, deadline=None)
    def test_exact_argmax_in_every_representation(self, kind, data):
        # the winner and the co-optimal positions are those of the exact
        # utilities of the brute-force breakpoints, whatever the tables hold
        bits = {"float": 53, "mpf80": 80, "mpf192": 192, "rational": 53}[kind]
        if kind == "rational":
            n, ftab, ctab = data.draw(mixed_monotone_instance_tables())
        else:
            n, ftab, ctab = data.draw(real_monotone_instance_tables(bits))
        sol = optimal_contract(instance_from_tables(ftab, ctab, bits))
        want = brute_breakpoints(ftab, ctab)
        utils = [(1 - a) * exact(ftab[m]) for a, m in want]
        best = utils.index(max(utils))  # the first, i.e. the smallest alpha
        tau = Fraction(1, 1 << (bits // 2))
        assert sol.set_star.mask == want[best][1]
        assert sol.co_optimal == [t for t, u in enumerate(utils) if utils[best] - u <= tau]
        assert sol.breakpoint_count == len(want)
        alpha = want[best][0]
        if kind == "rational":
            assert sol.alpha_star == alpha
            assert type(sol.alpha_star) is (Fraction if best else int)
        else:
            assert abs(exact(sol.alpha_star) - alpha) <= alpha / (1 << (bits - 3))

    def test_sub_ulp_winner_is_exact(self):
        # S_1 pays exactly 1/2; S_2 pays 1/2 plus less than an ulp of 1/2,
        # but its float utility rounds to just below 1/2
        ftab, ctab = [0.0, 1.0, 3.75, 4.0], [0.0, 0.5, 2.8833333333333333, 4.0]
        (_, _), (a1, _), (a2, _) = brute_breakpoints(ftab, ctab)
        u1, u2 = (1 - a1) * exact(ftab[1]), (1 - a2) * exact(ftab[2])
        assert 0 < u2 - u1 < exact(math.ulp(0.5))
        sol = optimal_contract(instance_from_tables(ftab, ctab))
        assert sol.set_star.mask == 2 and sol.co_optimal == [1, 2]
        # the reported numbers are the row's own, in float arithmetic
        alpha = (ctab[2] - ctab[1]) / (ftab[2] - ftab[1])
        assert (sol.alpha_star, sol.principal_utility) == (alpha, (1 - alpha) * ftab[2])
        assert sol.principal_utility < 0.5

    def test_ratio_calls_do_not_grow_with_n(self, monkeypatch):
        # the chain's f is carried as ints along the hull: no entry of the
        # table is converted, so a fixed number of reals.ratio calls (the
        # two index bisections and tau) serves every n
        counts = {}
        for n in (4, 10):
            inst = build_equal_revenue_submod_f(n)
            calls = []

            def counted(x):
                calls.append(x)
                return reals.ratio(x)

            monkeypatch.setattr(core, "ratio", counted)
            monkeypatch.setattr(solver, "ratio", counted)
            sol = optimal_contract(inst)
            monkeypatch.undo()
            assert sol.breakpoint_count == 1 << n
            counts[n] = len(calls)
        assert counts[4] == counts[10] <= 3

    def test_utility_helpers(self):
        # a row's utilities are alpha f - c and (1 - alpha) f of its entries
        row = enumerate_breakpoints(instance_from_tables(GOLDEN_F, GOLDEN_C))[1]
        assert (row.alpha, row.aset.mask) == (Fraction(1, 2), 0b10)
        assert row.agent_utility == Fraction(1, 2) * 4 - 2
        assert row.principal_utility == Fraction(1, 2) * 4


@st.composite
def fptas_tables(draw, kind):
    """(bits, ftab, ctab) of a kind: "float", "fraction" (held as a
    rational MpfTable), "mpf" at 120 or 192 bits, each with f shifted down
    in its own arithmetic by a drawn share of the welfare optimum (so the
    optimum stays positive and small sets have f < 0), or "mixed": ints
    and Fractions drawn entry by entry, negative f and c included."""
    if kind == "mixed":
        n, ftab, ctab = draw(non_monotone_tables(max_n=4))
        return 53, ftab, ctab
    bits = draw(st.sampled_from([120, 192])) if kind == "mpf" else 53
    if kind == "fraction":
        n, ftab, ctab = draw(monotone_instance_tables(max_n=5))
    else:
        n, ftab, ctab = draw(real_monotone_instance_tables(bits, max_n=5))
    share = draw(st.sampled_from([0, Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)]))
    ctx = RealContext(bits)
    with ctx.workprec():
        welfare = max(fv - cv for fv, cv in zip(ftab, ctab))
        if share and welfare > 0:
            d = welfare * (share if kind == "fraction" else ctx.make(share))
            ftab = [v - d for v in ftab]
    return bits, ftab, ctab


def fptas_outcome(inst, res):
    """Everything fptas returns, numbers as their lossless strings with
    their types, and the three ledgers' counts."""
    numbers = [(type(x), number_to_str(x)) for x in (res.alpha, res.principal_utility)]
    ledgers = [asdict(x) for x in (inst.ledger, inst.f.ledger, inst.c.ledger)]
    return numbers, res.aset, res.value_queries, res.best_response_queries, ledgers


class TestFptas:
    @pytest.mark.parametrize("eps", [0.25, 0.1])
    def test_guarantee_on_random_instances(self, eps):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randrange(2, 6)
            ftab, ctab = random_monotone_tables(rng, n)
            inst = instance_from_tables(ftab, ctab)
            exact = optimal_contract(inst)
            approx = fptas(inst, eps)
            assert approx.principal_utility >= (1 - eps) * exact.principal_utility

    def test_query_accounting(self, monkeypatch):
        # every query is one QueryLedger.count call, as a wrapper of count
        # (the benchmark's tracer) sees them
        rng = random.Random(3)
        ftab, ctab = random_monotone_tables(rng, 4)
        inst = instance_from_tables(ftab, ctab)
        inst.ledger.reset()
        calls = Counter()
        original = core.QueryLedger.count

        def count(ledger, kind, argument=None):
            calls[kind] += 1
            return original(ledger, kind, argument)

        monkeypatch.setattr(core.QueryLedger, "count", count)
        res = fptas(inst, 0.2)
        assert res.best_response_queries == inst.ledger.best_response_queries
        assert res.best_response_queries == calls["best_response_queries"]
        values = inst.f.ledger.value_queries + inst.c.ledger.value_queries
        assert res.value_queries == values == calls["value_queries"] > 0
        assert set(calls) == {"best_response_queries", "value_queries"}

    @pytest.mark.parametrize("kind", ["float", "fraction", "mpf", "mixed"])
    @given(data=st.data(), eps=st.sampled_from([0.5, 0.2, 0.1, 0.01]))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_probe_by_probe_reference(self, kind, data, eps):
        """Answering the grids in runs changes nothing fptas returns or
        charges: winner alpha, set and utility (value and type), both
        counts and every ledger equal conftest.reference_fptas's."""
        bits, ftab, ctab = data.draw(fptas_tables(kind))
        ours, ref = (instance_from_tables(ftab, ctab, bits=bits) for _ in range(2))
        if kind == "fraction":
            assert isinstance(ours.f.table, MpfTable) and ours.f.table.rational
        assert fptas_outcome(ours, fptas(ours, eps)) == fptas_outcome(ref, reference_fptas(ref, eps))

    def test_equal_utilities_go_to_the_first_probe(self):
        # f is 0 everywhere and mask 2 (c = -1) answers every probe: all
        # utilities are 0, so the alpha = 0 probe wins over the whole grid
        inst = instance_from_tables([0, 0, 0, 0], [0, 1, -1, 0])
        res = fptas(inst, 0.2)
        assert (res.alpha, res.aset.mask, res.principal_utility) == (0, 2, 0)
        assert res.best_response_queries > 2  # a grid was probed
        ref = instance_from_tables([0, 0, 0, 0], [0, 1, -1, 0])
        assert fptas_outcome(inst, res) == fptas_outcome(ref, reference_fptas(ref, 0.2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_equal_revenue_submod_f(8),
            lambda: build_equal_revenue_submod_f(9, precision_bits=360),
            lambda: build_equal_revenue_supmod_c(7),
        ],
        ids=["submod_f8", "submod_f9_360_bits", "supmod_c7"],
    )
    def test_equals_the_reference_on_the_chains(self, build):
        ours, ref = build(), build()
        for eps in (0.2, 0.01):
            assert fptas_outcome(ours, fptas(ours, eps)) == fptas_outcome(ref, reference_fptas(ref, eps))

    def test_value_queries_count_each_ledger_once(self):
        """The instance and its oracles may share one ledger (ledger=): each
        value query is then counted once, as with a ledger per oracle."""
        ftab, ctab = random_monotone_tables(random.Random(3), 3)
        shared = core.QueryLedger()
        f = core.SetFunctionOracle(3, table=ftab, ledger=shared)
        c = core.SetFunctionOracle(3, table=ctab, ledger=shared)
        res = fptas(core.ContractInstance(n=3, f=f, c=c, ledger=shared), 0.2)
        assert res.value_queries == shared.value_queries == 54
        assert res.best_response_queries == shared.best_response_queries
        inst = instance_from_tables(ftab, ctab)
        res = fptas(inst, 0.2)
        assert res.value_queries == inst.f.ledger.value_queries + inst.c.ledger.value_queries == 54
        assert inst.ledger.value_queries == 0

    def test_eps_validation(self):
        inst = instance_from_tables(GOLDEN_F, GOLDEN_C)
        for bad in (0, 1, -0.1, 1.5):
            with pytest.raises(ParameterError):
                fptas(inst, bad)

    def test_roadmap_target_n12_360_bits(self):
        """The roadmap's FPTAS target: its set and query counts at n=12
        and 360 bits, answered by the hull in well under a second."""
        res = fptas(build_equal_revenue_submod_f(12, precision_bits=360), 0.1)
        assert res.aset.mask == 0
        assert res.best_response_queries == 1250
        assert res.value_queries == 1263

    def test_exact_on_worked_example(self):
        inst = instance_from_tables(GOLDEN_F, GOLDEN_C)
        res = fptas(inst, 0.2)
        assert res.principal_utility >= Fraction(8, 5)  # (1-eps) * 2


class TestAlphaBracket:
    @given(
        st.one_of(
            monotone_instance_tables(max_n=5).map(lambda t: (53, t)),
            real_monotone_instance_tables(53, max_n=5).map(lambda t: (53, t)),
            real_monotone_instance_tables(120, max_n=5).map(lambda t: (120, t)),
        ),
        st.sampled_from([0.5, 0.2, 0.1, 0.01]),
    )
    @settings(max_examples=80, deadline=None)
    def test_grids_never_decrease(self, drawn, eps):
        # core.best_response_runs, which fptas answers each grid with,
        # needs every grid in non-decreasing order
        bits, (n, ftab, ctab) = drawn
        inst = instance_from_tables(ftab, ctab, bits=bits)
        s_opt = core.best_response(inst, 1).mask
        with inst.ctx.workprec():
            opt = inst.f.table[s_opt] - inst.c.table[s_opt]
        for j in range(n):
            cj = inst.c.table[1 << j]
            if opt > 0 and cj > 0:
                grid = alpha_bracket(inst, opt, cj, eps)
                assert all(a <= b for a, b in zip(grid, grid[1:]))

    def test_bracket_contains_optimum(self):
        inst = instance_from_tables(GOLDEN_F, GOLDEN_C)
        sol = optimal_contract(inst)
        welfare = max(fv - cv for fv, cv in zip(GOLDEN_F, GOLDEN_C))
        grid = alpha_bracket(inst, welfare, GOLDEN_C[2], 0.1)
        edge = 1 - welfare / (inst.n * (1 << inst.n) * (GOLDEN_C[2] + welfare))
        assert grid[0] == 1 - welfare / (GOLDEN_C[2] + welfare)
        assert grid[0] <= sol.alpha_star <= edge
        assert grid[-1] >= edge


def reference_co_optimal(inst):
    """(co_optimal, band): optimal_contract's co_optimal as decided before
    its floor fast path, each position's scaled score cross-multiplied with
    the scaled max less tau, and the positions the fast path leaves to that
    cross product (scores between floor(threshold) and one above it)."""
    hull = core.lower_hull(inst)
    s_f, s_c = hull.f_scale, hull.c_scale
    edges = solver._chain(hull)
    big_f = hull.f0 + sum(hull.dens[: edges.start])
    scores = [(big_f * s_c, 1)]
    for num, den in zip(hull.nums[edges.start : edges.stop], hull.dens[edges.start : edges.stop]):
        big_f += den
        scores.append(((den * s_c - num * s_f) * big_f, den))
    bn, bd = scores[0]
    for sn, sd in scores:
        if sn * bd > bn * sd:
            bn, bd = sn, sd
    tp, tq = reals.ratio(inst.ctx.maximizer_tolerance)
    ln, ld = bn * tq - tp * s_f * s_c * bd, bd * tq
    q = ln // ld
    near = [t for t, (sn, sd) in enumerate(scores) if sn * ld >= ln * sd]
    band = [t for t, (sn, sd) in enumerate(scores) if q * sd <= sn < (q + 1) * sd]
    return near, band


def planted_chain(utils, bits=53):
    """(ftab, ctab) of the chain S_t = mask t, f = 2^t past f(empty) = 0,
    with c solved so that S_t pays the principal utils[t - 1] (each in
    (1/2, 1], so the critical values rise), exactly in Fractions, or each
    entry rounded into RealContext(bits) when bits is given."""
    ftab, ctab = [Fraction(0)], [Fraction(0)]
    for t, u in enumerate(utils, 1):
        f = Fraction(1 << t)
        ctab.append(ctab[-1] + (1 - u / f) * (f - ftab[-1]))
        ftab.append(f)
    if bits is None:
        return ftab, ctab
    ctx = reals.RealContext(bits)
    return [ctx.make(v) for v in ftab], [ctx.make(v) for v in ctab]


class TestCoOptimalFastPath:
    """co_optimal decided on floor(threshold) with the per-position cross
    product as fallback equals the per-position filter everywhere."""

    def test_planted_at_above_and_below_the_threshold(self):
        tau, unit = Fraction(1, 1 << 26), Fraction(1, 1 << 90)  # tau at 53 bits
        utils = [1, 1 - tau, 1 - tau + unit, 1 - tau - unit, Fraction(3, 4), 1 - 2 * tau, 1 - tau / 2]
        inst = instance_from_tables(*planted_chain(utils, bits=None))
        near, band = reference_co_optimal(inst)
        # exactly at max - tau counts as near; it sits on the floor itself,
        # so the fallback decides it
        assert optimal_contract(inst).co_optimal == near == [1, 2, 3, 7]
        assert 2 in band

    @given(
        kind=st.sampled_from(["rational", 24, 53, 80, 192]),
        steps=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 140)), min_size=3, max_size=7),
        n=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_planted_near_the_threshold(self, kind, steps, n):
        bits = 53 if kind == "rational" else kind
        tau = Fraction(1, 1 << (bits // 2))
        utils = [1] + [1 - tau + Fraction(j, 1 << (bits // 2 + e)) for j, e in steps]
        utils = (utils * (1 << n))[: (1 << n) - 1]
        inst = instance_from_tables(
            *planted_chain(utils, None if kind == "rational" else bits), bits=bits
        )
        assert optimal_contract(inst).co_optimal == reference_co_optimal(inst)[0]

    @given(st.sampled_from(["rational", "float", "mpf80", "mpf192"]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_monotone_tables(self, kind, data):
        bits = {"rational": 53, "float": 53, "mpf80": 80, "mpf192": 192}[kind]
        if kind == "rational":
            n, ftab, ctab = data.draw(mixed_monotone_instance_tables())
        else:
            n, ftab, ctab = data.draw(real_monotone_instance_tables(bits))
        inst = instance_from_tables(ftab, ctab, bits)
        assert optimal_contract(inst).co_optimal == reference_co_optimal(inst)[0]

    def test_full_n14_chain(self):
        inst = build_equal_revenue_submod_f(14, precision_bits=420)
        sol = optimal_contract(inst)
        near, band = reference_co_optimal(inst)
        assert sol.co_optimal == near == list(range(1 << 14))
        assert band == []  # every position is cleared by one narrow product
