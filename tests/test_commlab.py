"""Disjointness-encoding augmented instances and two-party protocols.

Note on the reduction tests: the perturbed base perturbs one function by
+-delta |S|^2 and re-solves the other along the chain, so every breakpoint
still pays the principal 1 (up to a grid error far below the sandwich
half-width).  The winner bonus z/4 of action n+1 then decides the optimum:
disjoint pairs leave n+1 out, intersecting pairs bring it in.
"""

import dataclasses
import gc
import hashlib
import random
import weakref
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from contractlab import constructions, core
from contractlab.commlab import (
    CC_PRECISION_BITS,
    VARIANTS,
    Channel,
    ProtocolError,
    ReductionFailureError,
    SpecialSetVector,
    augmented_br_protocol,
    build_augmented,
    check_reduction,
    delta_bound,
    full_streaming_protocol,
    inapprox_table,
    minimal_half_superset,
)
from contractlab.constructions import (
    build_equal_revenue_submod_f,
    build_equal_revenue_supmod_c,
    verify_structure,
)
from contractlab.core import ContractInstance, SetFunctionOracle, best_response, lower_hull
from contractlab.perturb import epsilon_bound
from contractlab.reals import MpfTable, exact
from contractlab.serialize import number_to_str
from contractlab.solver import best_contract, chain_alphas, enumerate_breakpoints, optimal_contract
from contractlab.sparse import (
    approx_best_response,
    sigma_bound_demand,
    sigma_bound_supply,
    sparseness_ceiling,
)

from conftest import brute_submodular, brute_supermodular, strictly_of_class


def submod_base(n):
    return build_equal_revenue_submod_f(n, precision_bits=CC_PRECISION_BITS)


class TestSpecialSetVector:
    def test_round_trip_and_membership(self):
        v = SpecialSetVector.from_int(4, 0b001011)
        assert v.bits == [1, 1, 0, 1, 0, 0]  # bit i is the i-th size-2 subset
        chosen = [m for m, b in zip(v.masks, v.bits) if b]
        for m in chosen:
            assert m in v
        assert len(v) == 6

    def test_intersection(self):
        a = SpecialSetVector.from_int(4, 0b000111)
        b = SpecialSetVector.from_int(4, 0b111000)
        assert not a.intersects(b)
        assert a.intersects(SpecialSetVector.from_int(4, 0b000100))

    def test_singleton(self):
        v = SpecialSetVector.singleton(4, 0b0011)
        assert sum(v.bits) == 1 and 0b0011 in v
        with pytest.raises(ValueError):
            SpecialSetVector.singleton(4, 0b0111)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            SpecialSetVector.all_ones(3)

    @pytest.mark.parametrize("bits", [[0, 1, 2, 0, 0, 0], [0, -1, 0, 0, 0, 0], [0.5] * 6])
    def test_bits_other_than_0_1_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            SpecialSetVector(4, bits)

    def test_from_int_range(self):
        assert SpecialSetVector.from_int(4, (1 << 6) - 1).bits == [1] * 6
        for packed in (1 << 6, -1):
            with pytest.raises(ValueError, match="packed bits"):
                SpecialSetVector.from_int(4, packed)

    def test_vectors_share_their_index(self):
        a, b = SpecialSetVector.all_ones(6), SpecialSetVector.from_int(6, 5)
        assert a.masks is b.masks and len(a) == 20
        assert not a.intersects(SpecialSetVector.all_ones(4))  # other ground set


class TestDisjointness:
    def test_truth_table(self):
        def intersects(a, b):
            return SpecialSetVector(4, a).intersects(SpecialSetVector(4, b))

        assert not intersects([0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0])
        assert intersects([0, 1, 0, 1, 0, 1], [0, 1, 0, 0, 0, 0])
        assert not intersects([0] * 6, [1] * 6)
        with pytest.raises(ValueError):
            SpecialSetVector(4, [0, 1, 0])


class TestMinimalHalfSuperset:
    def test_adds_smallest_absent_actions(self):
        # mask {3} at n=4 -> add action 1 to reach size n/2 = 2
        assert minimal_half_superset(0b0100, 4) == 0b0101
        assert minimal_half_superset(0b0000, 4) == 0b0011
        assert minimal_half_superset(0b0011, 4) == 0b0011

    def test_superset_of_argument(self):
        for m in range(1 << 4):
            if m.bit_count() <= 2:
                h = minimal_half_superset(m, 4)
                assert h & m == m and h.bit_count() == 2


class TestDeltaAndZ:
    @pytest.mark.parametrize("variant", ["sub-sub", "sub-sup"])
    def test_delta_positive_submod_base(self, variant):
        base = submod_base(4)
        b = delta_bound(base, variant)
        assert b.bound > 0
        assert b.bound == min(b.components)

    def test_delta_positive_supmod_base(self):
        assert delta_bound(build_equal_revenue_supmod_c(4), "sup-sup").bound > 0

    def test_z_components_positive_and_z_below_sigma(self):
        ones = SpecialSetVector.all_ones(4)
        for variant, base in (
            ("sub-sub", submod_base(4)),
            ("sub-sup", submod_base(4)),
            ("sup-sup", build_equal_revenue_supmod_c(4)),
        ):
            aug = build_augmented(variant, base, ones, ones)
            for k, v in aug.z_components.items():
                assert v > 0, (variant, k)
            assert aug.z <= aug.sigma / 2
            assert aug.delta < aug.sigma  # carryover cap delta < sigma/(2 n^2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_delta_is_half_the_cap(self, variant):
        # half of min(delta_bound, sigma / (2 n^2)), rounded down onto the
        # perturbed base's grid, and kept under one key per variant
        base = build_equal_revenue_supmod_c(4) if variant == "sup-sup" else submod_base(4)
        ones = SpecialSetVector.all_ones(4)
        aug = build_augmented(variant, base, ones, ones)
        sigma = (sigma_bound_supply if variant == "sup-sup" else sigma_bound_demand)(base).sigma
        with base.ctx.workprec():
            half = exact(min(delta_bound(base, variant).bound, sigma / 32) / 2)
        grid = Fraction(1, 1 << aug.perturbed.meta["grid_bits"])
        assert half - grid < aug.delta <= half
        assert [key for key in base.kept if isinstance(key, tuple)] == [("augment", variant)]

    def test_odd_n_rejected(self):
        base = build_equal_revenue_submod_f(3, precision_bits=CC_PRECISION_BITS)
        ones = SpecialSetVector.all_ones(4)
        with pytest.raises(ValueError):
            build_augmented("sub-sub", base, ones, ones)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_augmented("sub-mod", submod_base(4), None, None)

    # these ended deep in the parts' arithmetic: an IndexError for a sub-*
    # variant on the supermodular-cost base, a TypeError (Fraction / mpf)
    # for sup-sup on the submodular-reward one
    @pytest.mark.parametrize("variant, build, need, got", [
        ("sub-sub", lambda: build_equal_revenue_supmod_c(4),
         "equal_revenue_submod_f", "equal_revenue_supmod_c"),
        ("sub-sup", lambda: build_equal_revenue_supmod_c(4),
         "equal_revenue_submod_f", "equal_revenue_supmod_c"),
        ("sup-sup", lambda: submod_base(4), "equal_revenue_supmod_c", "equal_revenue_submod_f"),
    ])
    def test_base_of_the_wrong_kind_refused(self, variant, build, need, got):
        base = build()
        ones = SpecialSetVector.all_ones(4)
        with pytest.raises(ValueError, match=f"^variant {variant} needs an {need} base, not {got}$"):
            build_augmented(variant, base, ones, ones)
        assert ("augment", variant) not in base.kept


class TestAugmentedStructure:
    @pytest.mark.parametrize(
        "variant,f_cls,c_cls",
        [
            ("sub-sub", "submodular", "submodular"),
            ("sub-sup", "submodular", "supermodular"),
            ("sup-sup", "supermodular", "supermodular"),
        ],
    )
    def test_structure_checks_pass(self, variant, f_cls, c_cls):
        base = build_equal_revenue_supmod_c(4) if variant == "sup-sup" else submod_base(4)
        rng = random.Random(1)
        for _ in range(3):
            x_f = SpecialSetVector.random(4, rng)
            x_c = SpecialSetVector.random(4, rng)
            aug = build_augmented(variant, base, x_f, x_c)
            assert aug.instance.f.declared_class == f_cls
            assert aug.instance.c.declared_class == c_cls
            assert verify_structure(aug.instance.f).ok
            assert verify_structure(aug.instance.c).ok

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_declared_classes_per_variant(self, variant):
        # (perturbed f, perturbed c): build_perturbed_cost/_reward decide
        # them, and z's margins and the augmented oracles read them off
        classes = {
            "sub-sub": ("submodular", "submodular"),
            "sub-sup": ("submodular", "supermodular"),
            "sup-sup": ("supermodular", "supermodular"),
        }[variant]
        base = build_equal_revenue_supmod_c(4) if variant == "sup-sup" else submod_base(4)
        zero = SpecialSetVector(4, [0] * 6)
        aug = build_augmented(variant, base, zero, zero)
        oracles = (aug.perturbed.f, aug.perturbed.c, aug.instance.f, aug.instance.c)
        assert tuple(o.declared_class for o in oracles) == classes * 2

    def test_structure_matches_brute_force(self):
        ones = SpecialSetVector.all_ones(4)
        aug = build_augmented("sub-sub", submod_base(4), ones, ones)
        assert brute_submodular(aug.instance.f.value_table(), 5)
        assert brute_submodular(aug.instance.c.value_table(), 5)
        aug2 = build_augmented("sup-sup", build_equal_revenue_supmod_c(4), ones, ones)
        assert brute_supermodular(aug2.instance.f.value_table(), 5)
        assert brute_supermodular(aug2.instance.c.value_table(), 5)

    def test_marginal_tables_encode_indicators(self):
        n = 4
        x_f = SpecialSetVector.singleton(n, 0b0011)
        x_c = SpecialSetVector.singleton(n, 0b0101)
        base = submod_base(n)
        aug = build_augmented("sub-sub", base, x_f, x_c)
        with base.ctx.workprec():
            self._check_marginals(aug, n)

    @staticmethod
    def _check_marginals(aug, n):
        z = aug.z
        size = 1 << n
        ftab, ctab = aug.instance.f.value_table(), aug.instance.c.value_table()
        for t in range(size):
            s = t.bit_count()
            # action n+1's marginals, read off the tables
            fm, cm = ftab[t + size] - ftab[t], ctab[t + size] - ctab[t]
            if s < 2:
                assert fm == z / 4 and cm == z / 2
            elif s == 2:
                assert fm == (z / 4 if t == 0b0011 else 0)
                if t == 0b0101:
                    assert cm == aug.alpha_tilde[t] * z / 4
                else:
                    assert cm == z / 2
            else:
                assert fm == 0
                assert cm == aug.alpha_tilde[1] * z / 8


class TestReduction:
    def test_disjoint_pairs_sound_all_variants(self):
        rng = random.Random(4)
        for variant, base in (
            ("sub-sub", submod_base(4)),
            ("sub-sup", submod_base(4)),
            ("sup-sup", build_equal_revenue_supmod_c(4)),
        ):
            for xf_bits, xc_bits in ((0b000111, 0b111000), (0, 0b111111), (0b010101, 0b101010)):
                aug = build_augmented(
                    variant,
                    base,
                    SpecialSetVector.from_int(4, xf_bits),
                    SpecialSetVector.from_int(4, xc_bits),
                )
                rep = check_reduction(aug)  # strict: raises on mismatch
                assert rep.ok and not rep.augmenting

    def test_intersecting_pairs_fail_as_analyzed(self):
        """Intersecting pairs are classified correctly: on the all-ones pair
        the bonus z/4 lifts the augmenting set above the equal-revenue
        plateau of the perturbed base.  (The name dates from when the
        perturbed base drifted and these pairs were misclassified.)"""
        ones = SpecialSetVector.all_ones(4)
        for variant, base in (
            ("sub-sub", submod_base(4)),
            ("sup-sup", build_equal_revenue_supmod_c(4)),
        ):
            aug = build_augmented(variant, base, ones, ones)
            rep = check_reduction(aug)  # strict: raises on mismatch
            assert rep.ok and rep.expected and rep.augmenting

    def test_strict_check_raises_on_mismatch(self):
        """An instance built for an intersecting pair, checked against a
        disjoint pair, is a mismatch that strict mode raises."""
        ones = SpecialSetVector.all_ones(4)
        aug = build_augmented("sup-sup", build_equal_revenue_supmod_c(4), ones, ones)
        aug = dataclasses.replace(aug, x_c=SpecialSetVector.all_zeros(4))
        rep = check_reduction(aug, strict=False)
        assert rep.augmenting and not rep.expected and not rep.ok
        with pytest.raises(ReductionFailureError):
            check_reduction(aug)

    def test_drift_dominates_halfwidth(self):
        """The max breakpoint revenue deviation of the perturbed base stays
        within the sandwich half-width, both compared exactly as Fractions,
        and both perturbed tables keep their declared classes strictly.
        (The name dates from when the drift exceeded the half-width.)"""
        for n in (4, 6):
            ones = SpecialSetVector.all_ones(n)
            for variant, base in (
                ("sup-sup", build_equal_revenue_supmod_c(n)),
                ("sub-sub", submod_base(n)),
                ("sub-sup", submod_base(n)),
            ):
                aug = build_augmented(variant, base, ones, ones)
                table = enumerate_breakpoints(aug.perturbed)
                drift = max(abs(b.principal_utility - 1) for b in table if b.aset.mask)
                assert isinstance(drift, Fraction), (variant, n)
                assert isinstance(aug.revenue_halfwidth, Fraction), (variant, n)
                assert drift <= aug.revenue_halfwidth, (variant, n)
                assert strictly_of_class(aug.perturbed.f), (variant, n)
                assert strictly_of_class(aug.perturbed.c), (variant, n)

    def test_best_response_projection(self):
        """For every augmented breakpoint alpha, S_alpha minus n+1 lies in the
        sigma/2-approximate best response of the perturbed base."""
        ones = SpecialSetVector.all_ones(4)
        for variant, base in (
            ("sub-sub", submod_base(4)),
            ("sup-sup", build_equal_revenue_supmod_c(4)),
        ):
            aug = build_augmented(variant, base, ones, ones)
            table = enumerate_breakpoints(aug.instance)
            for b in table:
                proj = b.aset.mask & ((1 << 4) - 1)
                cand = approx_best_response(aug.perturbed, b.alpha, aug.sigma / 2)
                assert proj in cand.masks()
                assert len(cand) <= sparseness_ceiling(4)


class TestExactReduction:
    @pytest.mark.parametrize(
        "variant,n,bits",
        [(v, n, bits) for v in ("sub-sub", "sub-sup") for n in (4, 6) for bits in (53, 192)]
        + [("sup-sup", 4, None), ("sup-sup", 6, None)],
    )
    def test_random_pairs_exact(self, variant, n, bits):
        """Every table on the reduction path is int/Fraction, whatever the
        base's precision; the perturbed tables hold their classes strictly
        and pay the principal within the documented grid bound; the
        augmented tables hold their classes (weakly: the n+1 marginal is
        constant on the small sets) and every pair is classified right."""
        if variant == "sup-sup":
            base = build_equal_revenue_supmod_c(n)
        else:
            base = build_equal_revenue_submod_f(n, precision_bits=bits)
        rng = random.Random(n * 1000 + (bits or 0))
        for _ in range(8 if n == 4 else 3):
            aug = build_augmented(
                variant, base, SpecialSetVector.random(n, rng), SpecialSetVector.random(n, rng)
            )
            p, inst = aug.perturbed, aug.instance
            for oracle in (p.f, p.c, inst.f, inst.c):
                rational = oracle.scaled()[2]
                assert rational and {type(v) for v in oracle.value_table()} <= {int, Fraction}
            for x in (aug.delta, aug.sigma, aug.z, aug.revenue_halfwidth):
                assert isinstance(x, Fraction)
            assert strictly_of_class(p.f) and strictly_of_class(p.c)
            assert verify_structure(inst.f).ok and verify_structure(inst.c).ok
            check_reduction(aug)  # strict: raises on a mismatch
        # revenues of the re-solved chain: rounding f~ down lowers them by
        # under 2^-kappa (1 + 2 f~_max); rounding c~ down raises them by
        # under 2^-kappa 2 f~_max
        step = Fraction(1, 1 << p.meta["grid_bits"])
        f_max = p.f.value_table()[-1]
        revenues = [b.principal_utility for b in enumerate_breakpoints(p) if b.aset.mask]
        assert len(revenues) == p.size - 1
        for u in revenues:
            assert isinstance(u, Fraction)
            if variant == "sup-sup":
                assert 0 <= u - 1 < step * 2 * f_max
            else:
                assert 0 <= 1 - u < step * (1 + 2 * f_max)
            assert abs(u - 1) <= aug.revenue_halfwidth


class TestInapproxTables:
    @pytest.mark.parametrize("kind", ["sub-sub", "sup-sup"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_gap_exactly_on_half_intersection(self, kind, n):
        rng = random.Random(n)
        x_f = SpecialSetVector.random(n, rng)
        x_c = SpecialSetVector.random(n, rng)
        f, c = inapprox_table(kind, n, x_f, x_c)
        ftab, ctab = f.value_table(), c.value_table()
        for m in range(1 << n):
            gap = ftab[m] - ctab[m]
            if m.bit_count() == n // 2 and m in x_f and m in x_c:
                assert gap > 0
            else:
                assert gap <= 0

    def test_structure(self):
        ones = SpecialSetVector.all_ones(4)
        f, c = inapprox_table("sub-sub", 4, ones, ones)
        assert verify_structure(f).ok and verify_structure(c).ok
        assert brute_submodular(f.value_table(), 4)
        f2, c2 = inapprox_table("sup-sup", 4, ones, SpecialSetVector.all_zeros(4))
        assert verify_structure(f2).ok and verify_structure(c2).ok
        assert brute_supermodular(c2.value_table(), 4)

    def test_documented_branch_values(self):
        ones = SpecialSetVector.all_ones(6)
        f, c = inapprox_table("sub-sub", 6, ones, ones)
        m3 = 0b000111
        assert f.table[m3] - c.table[m3] == 1  # (4n-3) - (4n-4)
        m2 = 0b000011
        assert f.table[m2] == c.table[m2] == 16
        f2, c2 = inapprox_table("sup-sup", 6, ones, ones)
        m4 = 0b001111
        assert f2.table[m4] - c2.table[m4] == -1

    def test_invalid_params(self):
        ones = SpecialSetVector.all_ones(4)
        with pytest.raises(ValueError):
            inapprox_table("sub-sup", 4, ones, ones)
        with pytest.raises(ValueError):
            inapprox_table("sub-sub", 2, SpecialSetVector.all_ones(2), SpecialSetVector.all_ones(2))


class TestProtocols:
    def test_full_streaming_protocol(self):
        holder = build_equal_revenue_supmod_c(3)
        channel = Channel(32)
        answer = full_streaming_protocol(channel, holder, holder)
        assert channel.transcript.total_bits == 8 * 32
        local = optimal_contract(holder)
        assert answer == (local.alpha_star, local.set_star)

    def test_augmented_br_protocol_matches_local(self):
        ones = SpecialSetVector.all_ones(4)
        aug = build_augmented("sup-sup", build_equal_revenue_supmod_c(4), ones, ones)
        width = 64
        cap = 2 * sparseness_ceiling(4) * width
        table = enumerate_breakpoints(aug.instance)
        for b in table:
            channel = Channel(width)
            got = augmented_br_protocol(aug, b.alpha, channel)
            assert got == best_response(aug.instance, b.alpha)
            assert channel.transcript.total_bits <= cap
            assert channel.transcript.br_calls == 1

    def test_malformed_messages(self):
        channel = Channel(8)
        with pytest.raises(ProtocolError):
            channel.send("Eve", [1])
        with pytest.raises(ProtocolError):
            channel.send("Alice", [])
        with pytest.raises(ProtocolError):
            Channel(0)


def expected_marginals(aug, n):
    """Action n+1's marginals over t < 2^n, as the reduction defines them:
    f gets z/4 on the small sets (the large ones for sup-sup) and on the
    members of x_f; c gets z/2, alpha~_1 z/8 or, for sub-sup below size
    n/2, alpha~ z/4 of the set's minimal size-n/2 superset, and alpha~_t z/4
    on each member t of x_c."""
    z, atil, half = aug.z, aug.alpha_tilde, n // 2
    fm, cm = [], []
    for t in range(1 << n):
        s = t.bit_count()
        on = s > half if aug.variant == "sup-sup" else s < half
        fm.append(z / 4 if on or t in aug.x_f else 0)
        if s == half:
            cm.append(atil[t] * z / 4 if t in aug.x_c else z / 2)
        elif aug.variant == "sub-sup":
            cm.append(atil[minimal_half_superset(t, n)] * z / 4 if s < half else z / 2)
        elif (s < half) == (aug.variant == "sub-sub"):
            cm.append(z / 2)
        else:
            cm.append(atil[1] * z / 8)
    return fm, cm


class TestScaledForms:
    """The augmented and perturbed tables are assembled as ints and held as
    those ints alone, and every consumer reads them: no table is converted
    per pair."""

    @staticmethod
    def base(variant, n):
        return build_equal_revenue_supmod_c(n) if variant == "sup-sup" else submod_base(n)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_ints_are_the_tables(self, variant, n):
        base = self.base(variant, n)
        rng = random.Random(n)
        ones, zeros = SpecialSetVector.all_ones(n), SpecialSetVector.all_zeros(n)
        pairs = [(ones, zeros), (zeros, ones)]
        pairs += [(SpecialSetVector.random(n, rng), SpecialSetVector.random(n, rng))
                  for _ in range(2)]
        size = 1 << n
        for x_f, x_c in pairs:
            aug = build_augmented(variant, base, x_f, x_c)
            p = aug.perturbed
            for oracle, lower, marginals in zip(
                (aug.instance.f, aug.instance.c), (p.f, p.c), expected_marginals(aug, n)
            ):
                for o in (oracle, lower):
                    ints, scale, rational = o.scaled()
                    assert rational and len(ints) == len(o.value_table())
                    assert all(Fraction(v, scale) == t for v, t in zip(ints, o.value_table()))
                low, table = tuple(lower.value_table()), tuple(oracle.value_table())
                assert table[:size] == low
                assert [u - v for u, v in zip(table[size:], low)] == marginals

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_table_converted_on_a_warm_cache(self, variant, monkeypatch):
        base = self.base(variant, 4)
        rng = random.Random(7)
        ones = SpecialSetVector.all_ones(4)
        build_augmented(variant, base, ones, ones)  # fills the cache
        calls = []
        original = core._scaled_ints

        def counted(tab, *kinds):
            calls.append(len(tab))
            return original(tab, *kinds)

        monkeypatch.setattr(core, "_scaled_ints", counted)
        for _ in range(3):
            x_f, x_c = SpecialSetVector.random(4, rng), SpecialSetVector.random(4, rng)
            aug = build_augmented(variant, base, x_f, x_c)
            assert verify_structure(aug.instance.f).ok
            assert verify_structure(aug.instance.c).ok
            rep = check_reduction(aug)
            got = augmented_br_protocol(aug, rep.alpha_star, Channel(64))
            assert got == best_response(aug.instance, rep.alpha_star)
        assert calls == []
        SetFunctionOracle(2, table=[0, 1, 1, 2]).scaled()  # a table-built oracle converts
        assert calls == [4]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_pairs_share_every_entry_but_the_half_sets(self, variant, n):
        base = self.base(variant, n)
        rng = random.Random(n + 1)
        ones = SpecialSetVector.all_ones(n)
        first = build_augmented(variant, base, ones, ones)
        second = build_augmented(
            variant, base, SpecialSetVector.random(n, rng), SpecialSetVector.random(n, rng)
        )
        size = 1 << n
        half = {m for m in range(size) if m.bit_count() == n // 2}
        for a, b in ((first.instance.f, second.instance.f), (first.instance.c, second.instance.c)):
            x, y = a.scaled()[0], b.scaled()[0]
            assert x is not y and x is a.table.ints
            for m in range(2 * size):
                if m - size not in half:
                    assert x[m] is y[m], m

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_fraction_arithmetic_on_a_warm_cache(self, variant, monkeypatch):
        base = self.base(variant, 4)
        rng = random.Random(8)
        ones = SpecialSetVector.all_ones(4)
        build_augmented(variant, base, ones, ones)  # fills the cache
        calls = []
        for name in ("__add__", "__radd__"):

            def counted(*args, original=getattr(Fraction, name)):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        assert Fraction(1, 2) + 1 == Fraction(3, 2) and len(calls) == 1  # counting works
        calls.clear()
        for _ in range(3):
            x_f, x_c = SpecialSetVector.random(4, rng), SpecialSetVector.random(4, rng)
            build_augmented(variant, base, x_f, x_c)
        assert calls == []


def times(oracle, factor, ctx):
    """A new oracle of the same class whose every value is factor times
    oracle's, exact (factor 1 gives the same values in a new table)."""
    if oracle.weights is not None:
        weights = [factor * w for w in oracle.weights]
        return SetFunctionOracle(oracle.n, weights=weights, declared_class=oracle.declared_class)
    with ctx.workprec():
        table = [factor * v for v in oracle.table]
    return SetFunctionOracle(oracle.n, table=table, declared_class=oracle.declared_class)


def kept_values(inst, variant):
    """Each value inst keeps (hull, chain, budget, the all-ones pair's
    reduction parts), as data, or the ValueError that refuses it."""
    ones = SpecialSetVector.all_ones(inst.n)

    def augmented():
        aug = build_augmented(variant, inst, ones, ones)
        oracles = (aug.perturbed.f, aug.perturbed.c, aug.instance.f, aug.instance.c)
        return (aug.delta, aug.sigma, aug.z, aug.z_components, aug.alpha_tilde,
                [o.scaled() for o in oracles])

    def chain():
        return [(type(a), a) for a in chain_alphas(inst)]

    out = {}
    for name, get in (("hull", lambda: lower_hull(inst)), ("chain", chain),
                      ("budget", lambda: epsilon_bound(inst)), ("augment", augmented)):
        try:
            out[name] = get()
        except ValueError as exc:
            out[name] = (type(exc), str(exc))
    return out


class TestAugmentCache:
    def test_replaced_reward_rebuilds_the_parts(self):
        base = submod_base(4)
        ones = SpecialSetVector.all_ones(4)
        a1 = build_augmented("sub-sub", base, ones, ones)
        base.f = times(base.f, 2, base.ctx)
        a2 = build_augmented("sub-sub", base, ones, ones)
        assert a2.perturbed is not a1.perturbed
        assert a2.perturbed.f.scaled() != a1.perturbed.f.scaled()

    @pytest.mark.parametrize("side,factor", [("f", 1), ("c", 1), ("f", 2), ("c", 2)])
    @pytest.mark.parametrize("variant", ["sub-sub", "sup-sup"])
    def test_kept_values_follow_a_replaced_table(self, variant, side, factor):
        # factor 1 is a new table object of the same values; f doubled keeps
        # the chain; c doubled leaves no chain, so all but the hull refuse
        base = build_equal_revenue_supmod_c(4) if variant == "sup-sup" else submod_base(4)
        kept_values(base, variant)
        setattr(base, side, times(getattr(base, side), factor, base.ctx))
        got = kept_values(base, variant)
        fresh = ContractInstance(
            n=base.n, f=base.f, c=base.c, ctx=base.ctx, meta={"kind": base.meta["kind"]}
        )
        assert got == kept_values(fresh, variant)
        assert "alpha_table" not in base.meta

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kept_parts_are_freed_with_their_base(self, variant):
        # the kept template holds no base, so no cycle runs through the
        # store: reference counting alone frees the base
        gc.disable()
        try:
            base = TestScaledForms.base(variant, 4)
            ones = SpecialSetVector.all_ones(4)
            aug = build_augmented(variant, base, ones, ones)
            assert ("augment", variant) in base.kept
            gone = weakref.ref(base)
            del base, aug
            assert gone() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_pairs_are_the_kept_template_but_at_their_half_sets(self, variant, n):
        base = TestScaledForms.base(variant, n)
        zeros = SpecialSetVector.all_zeros(n)
        aug = build_augmented(variant, base, zeros, zeros)
        template, f_half, c_half = base.kept[("augment", variant)]
        assert template.base is None and template.x_f.packed == template.x_c.packed == 0
        assert len(f_half) == len(c_half) == len(zeros)
        for name in ("variant", "perturbed", "delta", "z", "z_components", "sigma", "alpha_tilde"):
            assert getattr(aug, name) is getattr(template, name), name
        kept = (template.instance.f, template.instance.c)
        assert [o.scaled() for o in (aug.instance.f, aug.instance.c)] == [o.scaled() for o in kept]
        rng, size = random.Random(n + 2), 1 << n
        for _ in range(4):
            x_f, x_c = SpecialSetVector.random(n, rng), SpecialSetVector.random(n, rng)
            aug = build_augmented(variant, base, x_f, x_c)
            assert aug.base is base and (aug.x_f, aug.x_c) == (x_f, x_c)
            for got, want, x in ((aug.instance.f, kept[0], x_f), (aug.instance.c, kept[1], x_c)):
                a, b = got.scaled()[0], want.scaled()[0]
                assert len(a) == len(b) == 2 * size
                assert {m for m in range(2 * size) if a[m] != b[m]} == {
                    t + size for t in x.masks if t in x}

    def test_dropped_bases_never_share_cache_entries(self):
        # a collected base's id is often reused by the next base built, at
        # another precision; each base must get a perturbed base of its own
        ones = SpecialSetVector.all_ones(4)
        for k in range(200):
            base = build_equal_revenue_submod_f(4, precision_bits=(192, 256)[k % 2])
            aug = build_augmented("sub-sub", base, ones, ones)
            assert aug.perturbed.ctx == base.ctx, k
            del base, aug  # freed now, by reference count


class TestPairLocalChecks:
    """A pair's oracles record the template's as their origin; the
    template's verdicts are kept on it from the first pair's check on, and
    check_reduction keeps the template's hull repaired on the pair."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_pairs_check_against_the_template(self, variant, n, monkeypatch):
        base = TestScaledForms.base(variant, n)
        rng, ones = random.Random(n + 3), SpecialSetVector.all_ones(n)
        zeros = SpecialSetVector.all_zeros(n)
        pairs = [(ones, ones), (zeros, zeros), (ones, zeros), (zeros, ones)]
        pairs += [(SpecialSetVector.random(n, rng), SpecialSetVector.random(n, rng))
                  for _ in range(12)]
        build_augmented(variant, base, ones, ones)
        template = base.kept[("augment", variant)][0]
        tf, tc = template.instance.f, template.instance.c
        assert tf.verdict is None and tc.verdict is None  # none built with the parts
        assert "hull" not in template.instance.kept
        builds = []
        original = core.LowerHull.build.__func__

        def counted(cls, *oracles):
            builds.append(oracles)
            return original(cls, *oracles)

        monkeypatch.setattr(core.LowerHull, "build", classmethod(counted))
        for x_f, x_c in pairs:
            aug = build_augmented(variant, base, x_f, x_c)
            f, c = aug.instance.f, aug.instance.c
            ks = tuple(t + (1 << n) for t in x_f.masks)
            for oracle, parent in ((f, tf), (c, tc)):
                assert oracle.origin[0] is parent and oracle.origin[1] is parent.scaled()
                assert oracle.origin[2] == ks
            assert f.moved_from(tf) == ks and c.moved_from(tc) == ks
            assert verify_structure(f).ok and verify_structure(c).ok
            rep = check_reduction(aug)
            hull = aug.instance.kept["hull"]
            assert hull == original(core.LowerHull, f, c)
            assert best_response(aug.instance, rep.alpha_star).mask == rep.set_star.mask
            assert aug.instance.kept["hull"] is hull
        assert tf.verdict == (tf.declared_class, True) and tc.verdict == (tc.declared_class, True)
        assert len(builds) == 1 and builds[0] == (tf, tc)  # the template's hull alone

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [4, 6])
    def test_a_template_set_anew_sends_pairs_to_the_full_pass(self, variant, n, monkeypatch):
        # the template's tables set anew with the same int objects: a
        # pair's origin names a form the template no longer holds, so its
        # structure checks take the full pass and its hull is built
        base = TestScaledForms.base(variant, n)
        rng = random.Random(n)
        build_augmented(variant, base, SpecialSetVector.all_ones(n), SpecialSetVector.all_ones(n))
        template = base.kept[("augment", variant)][0]
        tf, tc = template.instance.f, template.instance.c
        aug = build_augmented(variant, base, SpecialSetVector.random(n, rng),
                              SpecialSetVector.random(n, rng))
        f, c = aug.instance.f, aug.instance.c
        for parent in (tf, tc):
            ints = parent.scaled()[0]
            parent.table = MpfTable(*parent.scaled())
            assert parent.scaled()[0] is ints
        assert f.moved_from(tf) is None and c.moved_from(tc) is None
        passes, builds = [], []
        vectors, build = constructions._marginal_vectors, core.LowerHull.build.__func__

        def passed(*args):
            passes.append(args)
            return vectors(*args)

        def built(cls, *oracles):
            builds.append(oracles)
            return build(cls, *oracles)

        monkeypatch.setattr(constructions, "_marginal_vectors", passed)
        monkeypatch.setattr(core.LowerHull, "build", classmethod(built))
        assert verify_structure(f).ok and verify_structure(c).ok
        assert len(passes) == 2  # one full pass per pair oracle, no template verdict read
        assert check_reduction(aug).ok
        assert builds == [(tf, tc), (f, c)]  # the template's hull anew, then the pair's

    def test_a_pair_made_after_the_base_changed_builds_its_hull(self, monkeypatch):
        # the base's tables set anew drop the kept parts: an old pair's
        # origin is not the new template's, so its hull is built afresh
        base = submod_base(4)
        ones = SpecialSetVector.all_ones(4)
        old = build_augmented("sub-sub", base, ones, ones)
        base.f = times(base.f, 1, base.ctx)
        rep = check_reduction(old)
        template = base.kept[("augment", "sub-sub")][0]
        assert old.instance.f.moved_from(template.instance.f) is None
        assert old.instance.kept["hull"] == core.LowerHull.build(old.instance.f, old.instance.c)
        assert rep.ok


@st.composite
def reduction_pairs(draw):
    """(variant, n, x_f, x_c) at n = 4 or 6, each vector all ones, all
    zeros, a singleton or random bits."""
    variant, n = draw(st.sampled_from(VARIANTS)), draw(st.sampled_from([4, 6]))
    ones = SpecialSetVector.all_ones(n)

    def vector():
        how = draw(st.sampled_from(["ones", "zeros", "singleton", "bits"]))
        if how == "ones":
            return ones
        if how == "zeros":
            return SpecialSetVector.all_zeros(n)
        if how == "singleton":
            return SpecialSetVector.singleton(n, draw(st.sampled_from(ones.masks)))
        return SpecialSetVector.from_int(n, draw(st.integers(0, (1 << len(ones)) - 1)))

    return variant, n, vector(), vector()


class TestWinnerOnly:
    """check_reduction reads the optimum's winner alone (best_contract):
    its alpha_star and set_star are optimal_contract's, in value and in
    type, on the repaired hull and on a hull built afresh."""

    @pytest.fixture(scope="class")
    def bases(self):
        """Each variant's base at each n, built on first use: a base keeps
        its reduction parts, so the examples share them."""
        return {}

    @given(reduction_pairs())
    @settings(max_examples=120, deadline=None)
    def test_equals_optimal_contracts_winner(self, bases, pair):
        variant, n, x_f, x_c = pair
        if (variant, n) not in bases:
            bases[variant, n] = TestScaledForms.base(variant, n)
        base = bases[variant, n]
        aug = build_augmented(variant, base, x_f, x_c)
        rep = check_reduction(aug, strict=False)
        sol = optimal_contract(aug.instance)
        alpha, aset = best_contract(build_augmented(variant, base, x_f, x_c).instance)
        for a, s in ((rep.alpha_star, rep.set_star), (alpha, aset)):
            assert (a, s) == (sol.alpha_star, sol.set_star)
            assert type(a) is type(sol.alpha_star) and type(s) is type(sol.set_star)
        assert rep.ok


class TestReductionDigest:
    """Every table entry, scale and verdict of the reduction, pinned as one
    SHA-256 digest per shape (the cc-reduction benchmark's five shapes):
    each entry of f-hat, c-hat and both perturbed tables as its type name
    and number_to_str, each of those oracles' scales, and each
    check_reduction report.  A change that means to alter any of them
    re-records its digest and says so."""

    GOLDEN = {
        ("sub-sub", 4): "8f9eedc071eb6726d2cd28a9b23a23927c75b78c8eaf92d0dacfb43e3feee896",
        ("sub-sup", 4): "7713ad470b41d8e09639bd4321d49f95d88ac8180c8d932e7e67ab83f2e637ce",
        ("sup-sup", 4): "3402320008055980df4828a6f51bec6ab93c361e650bde08a10ec9b66388061b",
        ("sub-sup", 6): "e52baa90a18ddaf3344a5d606dbec5db46deeb1d7d32a374e5fc1ebb6c873302",
        ("sup-sup", 6): "72a53219047b7e35dea5dac7d6d4f048bfcee10b4ebb1b2f4f3ab1d2c997119e",
    }

    @staticmethod
    def lines(variant, n):
        if variant == "sup-sup":
            base = build_equal_revenue_supmod_c(n)
        else:
            base = submod_base(n)
        rng = random.Random(n * 10 + VARIANTS.index(variant))
        k = len(SpecialSetVector.all_ones(n))
        ones = (1 << k) - 1
        pairs = [(ones, 0), (0, ones), (ones, ones)]
        pairs += [(rng.getrandbits(k), rng.getrandbits(k)) for _ in range(5)]
        for a, b in pairs:
            aug = build_augmented(
                variant, base, SpecialSetVector.from_int(n, a), SpecialSetVector.from_int(n, b)
            )
            for o in (aug.instance.f, aug.instance.c, aug.perturbed.f, aug.perturbed.c):
                yield f"{o.name} scale {o.scaled()[1]}"
                yield " ".join(f"{type(v).__name__}:{number_to_str(v)}" for v in o.value_table())
            rep = check_reduction(aug, strict=False)
            alpha = rep.alpha_star
            yield (f"set {rep.set_star.mask} alpha {type(alpha).__name__}:"
                   f"{number_to_str(alpha)} augmenting {rep.augmenting}")

    @pytest.mark.parametrize("variant,n", list(GOLDEN))
    def test_reduction_digest(self, variant, n):
        text = "\n".join(self.lines(variant, n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[variant, n]
