"""Hidden-optimum families: a reward bonus or cost discount on one set.

Starting from an equal-revenue base, adding a bonus epsilon to f(S_k) (or
discounting c(S_k)) breaks the revenue tie so the breakpoint incentivizing
S_k becomes the unique optimal contract, while every other breakpoint stays
exactly where it was.  Which table a family shifts, and how, is the base's
kind's (constructions.kind_of): the combinatorial side, f on the
submodular-reward base and c on the supermodular-cost one.  A member's
exact form is the base's ints with entry k replaced.  The admissible
epsilon is the minimum of three structural margins of the base instance:
epsilon_bound, kept on the base by core.derived and so computed again only
after a table is replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .core import ContractInstance, derived
from .constructions import (
    COST_DISCOUNT,
    REWARD_BONUS,
    ConstructionIntegrityError,
    EqualRevenueKind,
    kind_of,
    marginal_margins,
)
from .reals import exact, ratio
from .solver import chain_alphas


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class PerturbationBudget:
    """Strict upper bound on epsilon, with its three component minima:

    reward-bonus: (strict-submodularity margin of f,
                   min_t (c gap)/alpha_(t-1) - (f gap),
                   min_t f gap);
    cost-discount: (strict-supermodularity margin of c,
                    min_t c gap, min_t (alpha gap) * (f gap)).
    Frozen: one budget is shared by every caller of epsilon_bound.
    """

    epsilon_max: object
    components: tuple

    def __post_init__(self):
        if not self.epsilon_max > 0:
            raise ConstructionIntegrityError(
                f"perturbation budget must be strictly positive, got {self.epsilon_max}"
            )

    @property
    def default_epsilon(self):
        return self.epsilon_max / 2


def _chain_tables(base: ContractInstance):
    """f as a tuple (an MpfTable's entries built once, since the terms read
    every entry more than once) and the chain's critical values; each
    budget term needs two chain gaps, so n >= 2, and the margin scan is
    exhaustive, so n <= 12."""
    if not 2 <= base.n <= 12:
        raise ValueError(f"exhaustive bound needs 2 <= n <= 12, got n={base.n}")
    return tuple(base.f.table), chain_alphas(base)


def epsilon_bound_reward(base: ContractInstance) -> PerturbationBudget:
    """Three-way minimum bounding the reward bonus on the submodular-f base."""
    ftab, alphas = _chain_tables(base)
    ctab, size = tuple(base.c.table), base.size
    with base.ctx.workprec():
        c1 = marginal_margins(ftab, base.n, +1)[1]
        # alpha_table entry t is the critical value of S_t (alpha_0 = 0)
        c2 = min(
            (ctab[t] - ctab[t - 1]) / alphas[t - 1] - (ftab[t] - ftab[t - 1])
            for t in range(2, size)
        )
        c3 = min(ftab[t] - ftab[t - 1] for t in range(1, size))
    return PerturbationBudget(min(c1, c2, c3), (c1, c2, c3))


def epsilon_bound_cost(base: ContractInstance) -> PerturbationBudget:
    """Three-way minimum bounding the cost discount on the supermodular-c base.

    c1 and c2 are the margin and least gap of c's exact form's ints, each
    made a Fraction once: both terms are linear in the entries, so these
    are their exact values in every representation (a float or mpf table's
    entry differences would round).  The least of the three is taken by
    exact value, since mpmath does not compare an mpf c3 with a Fraction."""
    ftab, alphas = _chain_tables(base)
    ints, scale, _ = base.c.scaled()
    c1 = Fraction(marginal_margins(ints, base.n, -1)[1], scale)
    c2 = Fraction(min(map(sub, ints[2:], ints[1:-1])), scale)
    with base.ctx.workprec():
        # alpha_table entry t-1 is the critical value of S_t here
        c3 = min(
            (alphas[t - 1] - alphas[t - 2]) * (ftab[t] - ftab[t - 1])
            for t in range(2, base.size)
        )
    return PerturbationBudget(min((c1, c2, c3), key=exact), (c1, c2, c3))


def _budget(base: ContractInstance) -> PerturbationBudget:
    reward = kind_of(base).direction == REWARD_BONUS
    return epsilon_bound_reward(base) if reward else epsilon_bound_cost(base)


def epsilon_bound(base: ContractInstance) -> PerturbationBudget:
    """The base's budget in its direction, kept by core.derived under
    "budget"."""
    return derived(base, "budget", _budget)


@dataclass
class PerturbedInstance:
    k: int
    epsilon: object
    instance: ContractInstance


def valid_k_range(base: ContractInstance) -> range:
    """Every set of the base's chain but the first (the kind's chain_start),
    in increasing k."""
    return range(kind_of(base).chain_start + 1, base.size)


def _shifted_entry(base: ContractInstance, kind: EqualRevenueKind, k: int, epsilon):
    """Member k's one changed entry: (entry, int, scale).  entry is the
    base's entry k on the kind's side, shifted by epsilon in the base's
    working precision, and int / scale is its exact value, scale the LCM of
    the base table's scale and entry's denominator (a power of two stays
    one)."""
    old = getattr(base, kind.side)
    with base.ctx.workprec():
        entry = kind.shift(old.table[k], epsilon)
    p, q = ratio(entry)
    scale = math.lcm(old.scaled()[1], q)
    return entry, p * (scale // q), scale


def _perturbed(
    base: ContractInstance, kind: EqualRevenueKind, k: int, epsilon
) -> PerturbedInstance:
    """The family member at k, with k and epsilon already checked: the base
    with its oracle on the kind's side changed at entry k alone
    (_shifted_entry, SetFunctionOracle.with_entries), under the same
    declared class."""
    old = getattr(base, kind.side)
    entry, kint, scale = _shifted_entry(base, kind, k, epsilon)
    new = old.with_entries((k,), (kint,), scale, f"{old.name}{kind.suffix}", (entry,))
    oracles = {"f": base.f, "c": base.c, kind.side: new}
    inst = ContractInstance(n=base.n, **oracles, ctx=base.ctx, name=f"{base.name} perturbed(k={k})")
    inst.meta.update(
        kind="perturbed", base_kind=kind.name, k=k, epsilon=epsilon, direction=kind.direction
    )
    return PerturbedInstance(k=k, epsilon=epsilon, instance=inst)


def make_perturbed(base: ContractInstance, k: int, epsilon) -> PerturbedInstance:
    """Bonus f(S_k) += eps (submod-f base) or discount c(S_k) -= eps
    (supmod-c base)."""
    kind = kind_of(base)
    if k not in valid_k_range(base):
        raise BudgetError(f"k={k} outside valid range for {kind.direction}")
    budget = epsilon_bound(base)
    if not (0 < epsilon < budget.epsilon_max):
        raise BudgetError(f"epsilon {epsilon} outside (0, {budget.epsilon_max})")
    return _perturbed(base, kind, k, epsilon)


def family_iterator(base: ContractInstance):
    """All single-set perturbations of the base, in increasing k, at the
    budget's default epsilon (epsilon_bound).
    """
    kind = kind_of(base)
    epsilon = epsilon_bound(base).default_epsilon
    for k in valid_k_range(base):
        yield _perturbed(base, kind, k, epsilon)
