"""Two-party hardness constructions and a bit-counted protocol simulator.

An (n+1)th action is grafted onto a perturbed equal-revenue base.  One
function of the base is perturbed by +-delta |S|^2, which gives it the
strict sub- or supermodular slack the n+1 marginals need; the other is
re-solved along the chain so that every S_t still pays the principal 1.
The new action's marginals encode two indicator vectors x_f (Alice's) and
x_c (Bob's) over the size-n/2 sets; the base being equal-revenue, the
winner bonus z/4 decides the optimum, and the optimal contract
incentivizes action n+1 exactly when x_f and x_c share a set.  This
reduces set disjointness to contract optimization.

Three variants: sub-sub (submodular rewards and costs, c - delta|S|^2 with
f re-solved), sub-sup (submodular rewards, supermodular costs,
c + delta|S|^2 with f re-solved), sup-sup (both supermodular, additive-
reward base with f + delta|S|^2 and c re-solved).  All three use exact
rational arithmetic from the perturbed base on: delta, sigma, z and both
perturbed tables lie on one dyadic grid 2^-kappa, the re-solved table is
rounded down onto it, and the augmented tables are rational, so the
structure checks, the hull and the protocol compare exactly, whatever the
precision of the base.  Every table from the perturbed base on is built as
ints over one scale and held as those ints alone (a reals.MpfTable whose
entries read as Fractions).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, isqrt, lcm

from .core import (
    ActionSet,
    ContractInstance,
    SetFunctionOracle,
    _alpha_scores,
    _argmax_with_tie_break,
)
from .constructions import ConstructionIntegrityError
from .perturb import _adjacent_submodularity_margin
from .reals import exact
from .solver import chain_alphas
from .sparse import sigma_bound_demand, sigma_bound_supply

VARIANTS = ("sub-sub", "sub-sup", "sup-sup")

# mantissa bits of the submodular-reward bases the experiments build; the
# protocol's payload width is the base's precision
CC_PRECISION_BITS = 192


class ReductionFailureError(AssertionError):
    pass


class ProtocolError(ValueError):
    pass


@functools.cache
def _half_sets(n: int) -> tuple:
    """(masks, position): the size-n/2 subsets of [n] in increasing subset
    index, and each one's position among them.  Shared by every vector
    over n."""
    masks = tuple(m for m in range(1 << n) if m.bit_count() == n // 2)
    return masks, {m: i for i, m in enumerate(masks)}


class SpecialSetVector:
    """Indicator bits over the C(n, n/2) subsets of size n/2, in increasing
    subset-index order, held as one int: bit i of packed is the i-th
    subset's.  Each bit must be 0 or 1."""

    __slots__ = ("n", "masks", "_position", "packed")

    def __init__(self, n: int, bits):
        bits = list(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("indicator bits must be 0 or 1")
        self._set(n, sum(int(b) << i for i, b in enumerate(bits)), len(bits))

    def _set(self, n, packed, length):
        if n % 2:
            raise ValueError("n must be even")
        self.n = n
        self.masks, self._position = _half_sets(n)
        if length != len(self.masks):
            raise ValueError(f"need {len(self.masks)} bits, got {length}")
        self.packed = packed

    @property
    def bits(self) -> list:
        return [self.packed >> i & 1 for i in range(len(self.masks))]

    def __contains__(self, mask) -> bool:
        if isinstance(mask, ActionSet):
            mask = mask.mask
        i = self._position.get(mask)
        return i is not None and bool(self.packed >> i & 1)

    def __len__(self):
        return len(self.masks)

    def intersects(self, other: "SpecialSetVector") -> bool:
        return self.n == other.n and bool(self.packed & other.packed)

    @classmethod
    def all_ones(cls, n):
        return cls(n, [1] * comb(n, n // 2))

    @classmethod
    def all_zeros(cls, n):
        return cls(n, [0] * comb(n, n // 2))

    @classmethod
    def singleton(cls, n, mask):
        v = cls.all_zeros(n)
        if mask not in v._position:
            raise ValueError("mask is not a size-n/2 subset")
        return cls(n, [1 if m == mask else 0 for m in v.masks])

    @classmethod
    def random(cls, n, rng):
        return cls(n, [rng.randrange(2) for _ in range(comb(n, n // 2))])

    @classmethod
    def from_int(cls, n, packed: int):
        """Bit i of packed indicates the i-th size-n/2 subset; packed must
        lie in [0, 2^C(n, n/2))."""
        k = comb(n, n // 2)
        if not 0 <= packed < 1 << k:
            raise ValueError(f"packed bits must lie in [0, 2^{k}), got {packed}")
        v = cls.__new__(cls)
        v._set(n, packed, k)
        return v


@dataclass
class DeltaBudget:
    bound: object
    components: tuple

    def __post_init__(self):
        if not self.bound > 0:
            raise ConstructionIntegrityError("delta bound must be positive")


def _size_sq(mask: int) -> int:
    s = mask.bit_count()
    return s * s


def _chain_slope_terms(ftab, alphas, n):
    """min_t (alpha_(t+1) - alpha_t) (f gap_t)(f gap_(t+1)) / (f span) / n^2,
    over t in [1, 2^n - 2]; alphas[t] is the critical value of S_t."""
    best = None
    for t in range(1, (1 << n) - 1):
        g1 = ftab[t] - ftab[t - 1]
        g2 = ftab[t + 1] - ftab[t]
        v = (alphas[t + 1] - alphas[t]) * g1 * g2 / ((ftab[t + 1] - ftab[t - 1]) * n * n)
        if best is None or v < best:
            best = v
    return best


def delta_bound(base: ContractInstance, variant: str) -> DeltaBudget:
    """Admissible perturbation scale per variant.

    sub-sub: min of phi_c/n^2, alpha_1 f_1/n^2, (1-alpha_max)(last f gap)/n^2,
    and the slope-separation term; sub-sup drops the first two; sup-sup uses
    its own two terms over the additive-reward base.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = base.n
    size = 1 << n
    ftab = tuple(base.f.value_table())  # an MpfTable's entries built once
    ctab = tuple(base.c.value_table())
    alphas = chain_alphas(base)
    with base.ctx.workprec():
        if variant == "sup-sup":
            # alphas[t-1] is the critical value of S_t on this base
            a = {t: alphas[t - 1] for t in range(1, size)}
            phi_f = min(ftab[t] - ftab[t - 1] for t in range(1, size))
            c1 = min(
                phi_f * (a[t + 1] - a[t]) / (n * n) for t in range(1, size - 1)
            )
            c2 = min(
                (1 / a[t] - 1 / a[t + 1])
                * (ctab[t + 1] - ctab[t])
                * (ctab[t] - ctab[t - 1])
                / ((ctab[t + 1] - ctab[t - 1]) * 2 * n * n)
                for t in range(2, size - 1)
            )
            comps = (c1, c2)
        else:
            c3 = (1 - alphas[size - 1]) * (ftab[size - 1] - ftab[size - 2]) / (n * n)
            c4 = _chain_slope_terms(ftab, alphas, n)
            if variant == "sub-sub":
                phi_c = min(ctab[t] - ctab[t - 1] for t in range(1, size))
                c1 = phi_c / (n * n)
                c2 = alphas[1] * ftab[1] / (n * n)
                comps = (c1, c2, c3, c4)
            else:
                comps = (c3, c4)
        return DeltaBudget(bound=min(comps), components=comps)


def _zeta(variant, base, delta):
    """The z component that bounds the winner bonus: delta (1 - alpha_max)
    phi_f / (16 n^2 f_max), over the base rewards (f_max + 1 and phi_f
    capped at 1/2 for the additive-reward sup-sup base).  Exact: read off
    the base's scaled ints (SetFunctionOracle.scaled).
    """
    n = base.n
    ints, scale, _ = base.f.scaled()
    phi_f = Fraction(min(b - a for a, b in zip(ints, ints[1:])), scale)
    f_max = Fraction(ints[-1], scale)
    factor = exact(delta) * (1 - exact(chain_alphas(base)[-1])) / (16 * n * n)
    if variant == "sup-sup":
        return factor * min(Fraction(1, 2), phi_f) / (f_max + 1)
    return factor * phi_f / f_max


def _grid_bits(variant, base, delta, f_bound) -> int:
    """Least kappa with 2^-kappa <= zeta (1 - alpha_max) / (64 f_bound)."""
    alpha_max = exact(chain_alphas(base)[-1])
    step = _zeta(variant, base, delta) * (1 - alpha_max) / (64 * f_bound)
    return (ceil(1 / step) - 1).bit_length()


def _round_down(x, kappa) -> Fraction:
    """x rounded down onto the grid 2^-kappa."""
    scale = 1 << kappa
    return Fraction(floor(exact(x) * scale), scale)


def build_perturbed_cost(base: ContractInstance, delta, sign: int = -1) -> ContractInstance:
    """c-tilde(S) = c(S) + sign * delta |S|^2, with f-tilde re-solved along
    the chain so that every S_t pays the principal 1 up to a grid error.

    Every entry lies on one grid 2^-kappa, so both tables are exact.  delta
    is rounded down onto the grid, which makes c-tilde exact.  With c-tilde
    gaps d_t, (1 - d_t / (F - f~_(t-1))) F = 1 makes f~_t the larger root F
    of F^2 - (f~_(t-1) + 1 + d_t) F + f~_(t-1) = 0, solved from the already
    rounded f~_(t-1) and f~_0 = f(empty) = 1 and rounded down onto the grid
    (an exact floor, in integers); d_t = 1 gives back the base's square-root
    recurrence.

    Rounding F down by e < 2^-kappa lowers the revenue of S_t by at most
    e (1 + d_t f~_(t-1) / (F - f~_(t-1))^2) < 2^-kappa (1 + 2 f~_max): the
    critical value d_t / (F - f~_(t-1)) is below 1, and d_t > 1/2 because
    the budget's (1 - alpha_max) term keeps delta n^2 below
    (1 - alpha_max) / alpha_max < 1/2 (n >= 2).  The error stays in its
    own step.  kappa is the least with
    2^-kappa <= zeta (1 - alpha_max) / (128 f_max), and f~_max <= 2 f_max is
    checked, so every breakpoint revenue lies in
    (1 - 3 zeta (1 - alpha_max) / 64, 1]: within three quarters of the
    sandwich half-width while zeta sets z.

    delta must lie in (0, delta_bound(base, variant).bound); the caller,
    _augment_parts, checks it.
    """
    variant = "sub-sub" if sign < 0 else "sub-sup"
    f_max = exact(base.f.value_table()[-1])
    kappa = _grid_bits(variant, base, delta, 2 * f_max)
    scale = 1 << kappa
    d = floor(exact(delta) * scale)
    cs = [exact(cv) * scale for cv in base.c.value_table()]
    if any(v.denominator != 1 for v in cs):
        raise ConstructionIntegrityError("base costs are not on the perturbation grid")
    cs = [v.numerator + sign * d * _size_sq(m) for m, v in enumerate(cs)]
    fs = [floor(exact(base.f.value_table()[0]) * scale)]
    for t in range(1, base.size):
        prev = fs[-1]
        b = prev + scale + cs[t] - cs[t - 1]
        fs.append((b + isqrt(b * b - 4 * scale * prev)) >> 1)
    if fs[-1] > 2 * f_max * scale:
        raise ConstructionIntegrityError("re-solved rewards left the grid's bound")
    cls = "submodular" if sign < 0 else "supermodular"
    f = SetFunctionOracle(
        base.n, scaled=(fs, scale, True), declared_class="submodular", name="resolved_reward"
    )
    c = SetFunctionOracle(base.n, scaled=(cs, scale, True), declared_class=cls, name="perturbed_cost")
    inst = ContractInstance(n=base.n, f=f, c=c, ctx=base.ctx, name=f"{base.name} c~")
    inst.meta["kind"] = "cc_perturbed_cost"
    inst.meta["delta"] = Fraction(d, scale)
    inst.meta["grid_bits"] = kappa
    return inst


def build_perturbed_reward(base: ContractInstance, delta) -> ContractInstance:
    """f-tilde(S) = f(S) + delta |S|^2, with c-tilde re-solved along the
    chain so that every S_t pays the principal 1 up to a grid error.

    Every entry lies on one grid 2^-kappa: delta is rounded down onto it, so
    f-tilde is exact.  Revenue 1 at S_t needs
    c~_t = c~_(t-1) + (1 - 1/f~_t)(f~_t - f~_(t-1)), from c~_0 = 0.  Solved
    exactly, the denominators grow with every step, so each c~_t is rounded
    down onto the grid, with 2^-kappa <= zeta (1 - alpha_max) / (64 f~_max).
    The rounding error of one step does not carry into the next gap, and
    every f-tilde gap exceeds 1/2.  Rounding c~_t down raises the revenue of
    S_t, so every breakpoint revenue lies in [1, 1 + zeta (1 - alpha_max) / 32):
    within half the sandwich half-width while zeta sets z.

    delta must lie in (0, delta_bound(base, "sup-sup").bound); the caller,
    _augment_parts, checks it.
    """
    n = base.n
    kappa = _grid_bits("sup-sup", base, delta, base.f.value_table()[-1] + exact(delta) * n * n)
    scale = 1 << kappa
    d = floor(exact(delta) * scale)
    fs = [fv * scale + d * _size_sq(m) for m, fv in enumerate(base.f.value_table())]
    cs = [0]
    for t in range(1, base.size):
        # floor(c~_(t-1) + (1 - 1/f~_t)(f~_t - f~_(t-1))) in grid units
        cs.append(cs[-1] + (fs[t] - scale) * (fs[t] - fs[t - 1]) // fs[t])
    f = SetFunctionOracle(
        n, scaled=(fs, scale, True), declared_class="supermodular", name="perturbed_reward"
    )
    c = SetFunctionOracle(
        n, scaled=(cs, scale, True), declared_class="supermodular", name="resolved_cost"
    )
    inst = ContractInstance(n=n, f=f, c=c, ctx=base.ctx, name=f"{base.name} f~")
    inst.meta["kind"] = "cc_perturbed_reward"
    inst.meta["delta"] = Fraction(d, scale)
    inst.meta["grid_bits"] = kappa
    return inst


def _alpha_tilde_by_mask(perturbed: ContractInstance):
    """Critical value of each nonempty chain set in the perturbed instance."""
    from .solver import critical_values

    out = {mask: alpha for alpha, mask in critical_values(perturbed)}
    size = perturbed.size
    missing = [t for t in range(1, size) if t not in out]
    if missing:
        raise ConstructionIntegrityError(
            f"perturbed instance lost critical values at indices {missing[:5]}"
        )
    return out


def minimal_half_superset(mask: int, n: int) -> int:
    """h(t): minimal index of a size-n/2 superset of S_t (t itself if
    |S_t| >= n/2).  Minimal index means adding the smallest absent actions."""
    half = n // 2
    if mask.bit_count() >= half:
        return mask
    h = mask
    i = 0
    while h.bit_count() < half:
        if not (h >> i) & 1:
            h |= 1 << i
        i += 1
    return h


@dataclass
class AugmentedCCInstance:
    variant: str
    base: ContractInstance
    perturbed: ContractInstance
    delta: object
    z: object
    z_components: dict
    sigma: object
    x_f: SpecialSetVector
    x_c: SpecialSetVector
    instance: ContractInstance
    alpha_tilde: dict

    @property
    def revenue_halfwidth(self):
        """z (1 - alpha_max) / 16: the sandwich half-width and winner margin.

        Exact, with alpha_max the base's top critical value.  Every
        breakpoint of the perturbed base pays the principal within this
        distance of 1 (up to the grid error of its re-solved table: at most
        three quarters of it for sub-sub/sub-sup, half of it for sup-sup),
        and an augmenting optimum of an intersecting pair pays more than 1
        plus it.
        """
        return self.z * (1 - exact(chain_alphas(self.base)[-1])) / 16


def _margins(oracle, sense):
    """(phi, psi) of an int/Fraction table, on the oracle's scaled ints: the
    least chain gap and the adjacent sub- (sense +1) or supermodularity (-1)
    margin."""
    ints, scale, _ = oracle.scaled()
    phi = min(b - a for a, b in zip(ints, ints[1:]))
    margin = _adjacent_submodularity_margin(ints, oracle.n, sense)
    return Fraction(phi, scale), Fraction(margin, scale)


def _z_components(variant, base, perturbed, delta, sigma):
    """Margins capping z, read off the tables the augmented instance is
    built on: both perturbed tables, plus the base reward gaps for sup-sup.
    All exact; zeta is rounded down onto the perturbed base's grid."""
    n = base.n
    comps = {}
    comps["phi_f_tilde"], comps["psi_f_tilde"] = _margins(
        perturbed.f, -1 if variant == "sup-sup" else +1
    )
    comps["phi_c_tilde"], comps["psi_c_tilde"] = _margins(
        perturbed.c, +1 if variant == "sub-sub" else -1
    )
    comps["zeta"] = _round_down(_zeta(variant, base, delta), perturbed.meta["grid_bits"])
    comps["sigma_half"] = sigma / 2
    if variant == "sup-sup":
        # rewards get the extra 1/2 cap
        ftab = base.f.value_table()
        comps["phi_f"] = min([Fraction(1, 2)] + [ftab[t] - ftab[t - 1] for t in range(1, 1 << n)])
    for k, v in comps.items():
        if not v > 0:
            raise ConstructionIntegrityError(f"z component {k} = {v} not positive")
    return comps


@dataclass
class _AugmentParts:
    """build_augmented's indicator-independent part for one (base, variant,
    delta): the perturbed base, its critical values, z, and the all-zero
    pair's augmented tables, which a pair copies and changes at its
    size-n/2 sets only.

    f_ints and c_ints are that pair's f-hat and c-hat as ints on f_scale
    and c_scale, the only form they are held in.  f_scale is the perturbed
    f scale combined with z/4's denominator; c_scale also takes in the
    denominators of z/2, alpha~_1 z/8 and every alpha~_t z/4 (one shared
    scale would make the f ints as long as the c ints).  f_half[i] is the
    int of f-hat at t + 2^n with marginal z/4 for the i-th size-n/2 set t,
    taken when x_f holds t; c_half[i] is the same for c-hat, with marginal
    alpha~_t z/4, taken when x_c holds t."""

    sigma: Fraction
    delta: Fraction
    perturbed: ContractInstance
    alpha_tilde: dict
    z_components: dict
    z: Fraction
    f_scale: int
    c_scale: int
    f_ints: tuple
    c_ints: tuple
    f_half: tuple
    c_half: tuple


def _lifted(oracle, scale, marginals, half):
    """The oracle's scaled ints brought onto scale and lifted to n+1
    actions, entry m + 2^n being entry m plus the int marginals[m], as
    (ints, picks) with picks[i] = entry t plus w, the int at t + 2^n, for
    half[i] = (t, w).  A 0 marginal reuses the lower int itself."""
    ints, s, _ = oracle.scaled()
    low = tuple(v * (scale // s) for v in ints)
    upper = tuple(v + w if w else v for v, w in zip(low, marginals))
    return low + upper, tuple(low[t] + w for t, w in half)


def _augment_parts(variant, base, delta) -> _AugmentParts:
    n = base.n
    if variant == "sup-sup":
        sigma = sigma_bound_supply(base).sigma
    else:
        sigma = sigma_bound_demand(base).sigma
    with base.ctx.workprec():
        budget = delta_bound(base, variant)
        # the sparse best-response carryover additionally needs
        # delta < sigma / (2 n^2)
        cap = min(budget.bound, sigma / (2 * n * n))
        if delta is None:
            delta = cap / 2
        if not (0 < delta < cap):
            raise ValueError(f"delta {delta} outside (0, {cap})")
    if variant == "sup-sup":
        perturbed = build_perturbed_reward(base, delta)
    else:
        perturbed = build_perturbed_cost(base, delta, sign=-1 if variant == "sub-sub" else +1)
    # from here on every number is exact: delta and sigma are rounded
    # down onto the perturbed base's grid
    delta = perturbed.meta["delta"]
    sigma = _round_down(sigma, perturbed.meta["grid_bits"])
    atil = _alpha_tilde_by_mask(perturbed)
    comps = _z_components(variant, base, perturbed, delta, sigma)
    z = min(comps.values())
    z4 = z / 4
    half = _half_sets(n)[0]
    c_values = {"z2": z / 2, "a1": atil[1] * z / 8}
    c_values.update((t, atil[t] * z / 4) for t in half)
    f_scale = lcm(perturbed.f.scaled()[1], z4.denominator)
    c_scale = lcm(perturbed.c.scaled()[1], *(v.denominator for v in c_values.values()))
    f_plus = (z4 * f_scale).numerator
    c_plus = {k: (v * c_scale).numerator for k, v in c_values.items()}
    f_on, c_keys = _marginal_template(variant, n)
    f_ints, f_half = _lifted(
        perturbed.f, f_scale, [f_plus if on else 0 for on in f_on], [(t, f_plus) for t in half]
    )
    c_ints, c_half = _lifted(
        perturbed.c, c_scale, [c_plus[k] for k in c_keys], [(t, c_plus[t]) for t in half]
    )
    return _AugmentParts(
        sigma=sigma,
        delta=delta,
        perturbed=perturbed,
        alpha_tilde=atil,
        z_components=comps,
        z=z,
        f_scale=f_scale,
        c_scale=c_scale,
        f_ints=f_ints,
        c_ints=c_ints,
        f_half=f_half,
        c_half=c_half,
    )


@functools.cache
def _marginal_template(variant: str, n: int) -> tuple:
    """(f_on, c_keys) over t < 2^n for a pair of all-zero vectors: whether
    f's marginal at t is z/4 (else 0), and the key of c's in
    _augment_parts' marginal values: "z2" for z/2, "a1" for alpha~_1 z/8,
    a size-n/2 set t for alpha~_t z/4.  A pair's vectors then change only
    their size-n/2 sets: a member of x_f gets z/4, a member t of x_c gets
    alpha~_t z/4."""
    half = n // 2
    f_on, c_keys = [], []
    for t in range(1 << n):
        s = t.bit_count()
        f_on.append(s > half if variant == "sup-sup" else s < half)
        if s == half:
            c_keys.append("z2")
        elif variant == "sub-sub":
            c_keys.append("z2" if s < half else "a1")
        elif variant == "sub-sup":
            c_keys.append(minimal_half_superset(t, n) if s < half else "z2")
        else:
            c_keys.append("a1" if s < half else "z2")
    return tuple(f_on), tuple(c_keys)


def build_augmented(
    variant: str,
    base: ContractInstance,
    x_f: SpecialSetVector,
    x_c: SpecialSetVector,
    delta=None,
) -> AugmentedCCInstance:
    """Attach action n+1 with indicator-encoded marginals to the perturbed base.

    base: submodular-reward equal-revenue instance for sub-sub/sub-sup,
    additive-reward (supermodular-cost) instance for sup-sup; n must be even.
    delta must lie below the variant's delta_bound and sigma / (2 n^2);
    None takes half that cap.  Everything but the marginals is independent
    of (x_f, x_c) and cached on the base (_AugmentParts), both augmented
    tables of the all-zero pair included, as ints on the cached scales.  A
    pair copies those two int lists and overwrites the upper-half int of
    each size-n/2 set its indicator bits hold with a prebuilt one, at most
    2 C(n, n/2) ints, so it does no arithmetic; the augmented oracles are
    handed the ints alone, and their entries read as Fractions.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = base.n
    if n % 2:
        raise ValueError("augmentation requires even n")
    if x_f.n != n or x_c.n != n:
        raise ValueError("indicator vectors over wrong ground set")
    cache_key = (variant, None if delta is None else repr(delta))
    parts = base.augment_cache.get(cache_key)
    if parts is None:
        parts = base.augment_cache[cache_key] = _augment_parts(variant, base, delta)
    fhat, chat = list(parts.f_ints), list(parts.c_ints)
    size = 1 << n
    for i, t in enumerate(_half_sets(n)[0]):
        if x_f.packed >> i & 1:
            fhat[size + t] = parts.f_half[i]
        if x_c.packed >> i & 1:
            chat[size + t] = parts.c_half[i]
    f_cls = "submodular" if variant in ("sub-sub", "sub-sup") else "supermodular"
    c_cls = "submodular" if variant == "sub-sub" else "supermodular"
    fhat_o = SetFunctionOracle(
        n + 1, scaled=(fhat, parts.f_scale, True), declared_class=f_cls, name="augmented_reward"
    )
    chat_o = SetFunctionOracle(
        n + 1, scaled=(chat, parts.c_scale, True), declared_class=c_cls, name="augmented_cost"
    )
    # exact tables: the default context's tolerance compares with Fractions
    inst = ContractInstance(n=n + 1, f=fhat_o, c=chat_o, name=f"augmented {variant} (n={n})")
    inst.meta["kind"] = f"cc_augmented_{variant}"
    return AugmentedCCInstance(
        variant=variant,
        base=base,
        perturbed=parts.perturbed,
        delta=parts.delta,
        z=parts.z,
        z_components=parts.z_components,
        sigma=parts.sigma,
        x_f=x_f,
        x_c=x_c,
        instance=inst,
        alpha_tilde=parts.alpha_tilde,
    )


@dataclass
class ReductionReport:
    variant: str
    augmenting: bool  # n+1 in the incentivized optimum
    expected: bool  # x_f and x_c intersect
    set_star: ActionSet
    alpha_star: object

    @property
    def ok(self):
        return self.augmenting == self.expected


def check_reduction(aug: AugmentedCCInstance, strict: bool = True) -> ReductionReport:
    """Solve the augmented instance; (n+1 in S*) must equal (x_f meets x_c)."""
    from .solver import optimal_contract

    sol = optimal_contract(aug.instance)
    augmenting = (aug.base.n + 1) in sol.set_star
    expected = aug.x_f.intersects(aug.x_c)
    report = ReductionReport(
        variant=aug.variant,
        augmenting=augmenting,
        expected=expected,
        set_star=sol.set_star,
        alpha_star=sol.alpha_star,
    )
    if strict and not report.ok:
        raise ReductionFailureError(
            f"{aug.variant}: n+1 in optimum is {augmenting}, intersection is {expected}"
        )
    return report


def inapprox_table(kind: str, n: int, x_f: SpecialSetVector, x_c: SpecialSetVector):
    """Constant-gap tables: f - c > 0 exactly on size-n/2 sets in both vectors.

    kind "sub-sub" gives submodular f and c; "sup-sup" supermodular.
    """
    if kind not in ("sub-sub", "sup-sup"):
        raise ValueError(f"unknown kind {kind!r}")
    if n % 2 or n < 4:
        raise ValueError("n must be even and >= 4")
    half = n // 2
    ftab, ctab = [], []
    for m in range(1 << n):
        s = m.bit_count()
        if kind == "sub-sub":
            if s < half:
                fv, cv = 8 * s, 8 * s
            elif s == half:
                fv = 4 * n - 3 if m in x_f else 4 * n - 4
                cv = 4 * n - 4 if m in x_c else 4 * n - 2
            else:
                fv, cv = 2 * s + 3 * n - 3, 2 * s + 3 * n - 2
        else:
            if s < half:
                fv, cv = 2 * s, 2 * s
            elif s == half:
                fv = n + 1 if m in x_f else n
                cv = n if m in x_c else n + 2
            else:
                fv, cv = 6 * s - 2 * n - 1, 6 * s - 2 * n
        ftab.append(fv)
        ctab.append(cv)
    cls = "submodular" if kind == "sub-sub" else "supermodular"
    f = SetFunctionOracle(n, table=ftab, declared_class=cls, name=f"inapprox_{kind}_reward")
    c = SetFunctionOracle(n, table=ctab, declared_class=cls, name=f"inapprox_{kind}_cost")
    return f, c


# --- protocol simulator ---------------------------------------------------


@dataclass
class Transcript:
    width_bits: int
    total_bits: int = 0
    br_calls: int = 0


class Channel:
    """Bit-counting message channel with a fixed payload width per value.

    send checks only that the sender is "Alice" or "Bob" and that the
    payload is not empty, then adds width_bits per value to the transcript's
    total_bits.  It does not check who speaks when.
    """

    def __init__(self, width_bits: int):
        if width_bits <= 0:
            raise ProtocolError("width_bits must be positive")
        self.transcript = Transcript(width_bits=width_bits)

    def send(self, sender: str, values):
        if sender not in ("Alice", "Bob"):
            raise ProtocolError(f"unknown sender {sender!r}")
        values = list(values)
        if not values:
            raise ProtocolError("empty message")
        self.transcript.total_bits += len(values) * self.transcript.width_bits
        return values

    def charge_br_call(self):
        self.transcript.br_calls += 1


def full_streaming_protocol(channel: Channel, f_holder, c_holder):
    """Bob ships his whole cost table; Alice solves locally."""
    from .solver import optimal_contract

    ctab = channel.send("Bob", c_holder.c.value_table())
    c = SetFunctionOracle(f_holder.n, table=ctab, declared_class=c_holder.c.declared_class)
    inst = ContractInstance(n=f_holder.n, f=f_holder.f, c=c, ctx=f_holder.ctx)
    sol = optimal_contract(inst)
    return sol.alpha_star, sol.set_star


def augmented_br_protocol(aug: AugmentedCCInstance, alpha, channel: Channel) -> ActionSet:
    """Best response of the augmented instance via public sparse candidates.

    Both parties know the perturbed base, so both enumerate its sigma/2
    approximate best response at alpha; the true augmented best response,
    stripped of n+1, always lies there.  Bob sends the augmented cost of
    each candidate and of its n+1-extension (2 |candidates| values), as its
    int over the cost table's public scale; Alice, who knows every reward,
    picks the argmax under the standard tie-break, scored exactly on the
    scaled ints (core._alpha_scores).
    """
    from .sparse import approx_best_response

    n = aug.base.n
    channel.charge_br_call()
    cand = approx_best_response(aug.perturbed, alpha, aug.sigma / 2)
    masks = sorted(s.mask for s in cand.members)
    # increasing mask order, so the lower-index tie-break is best_response's
    masks += [m | 1 << n for m in masks]
    f_ints, s_f, _ = aug.instance.f.scaled()
    c_ints, s_c, _ = aug.instance.c.scaled()
    costs = channel.send("Bob", [c_ints[m] for m in masks])
    fvals = [f_ints[m] for m in masks]
    utils, _ = _alpha_scores(alpha, fvals, s_f, costs, s_c)
    best = masks[_argmax_with_tie_break(utils, fvals)]
    return ActionSet(n + 1, best)
