"""Hidden-optimum families: a reward bonus or cost discount on one set.

Starting from an equal-revenue base, adding a bonus epsilon to f(S_k) (or
discounting c(S_k)) breaks the revenue tie so the breakpoint incentivizing
S_k becomes the unique optimal contract, while every other breakpoint stays
exactly where it was.  The admissible epsilon is the minimum of three
structural margins of the base instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

from .core import ContractInstance, SetFunctionOracle
from .constructions import ConstructionIntegrityError, _marginal_getters
from .solver import chain_alphas

REWARD_BONUS = "reward-bonus"
COST_DISCOUNT = "cost-discount"

_DIRECTION_FOR_KIND = {
    "equal_revenue_submod_f": REWARD_BONUS,
    "equal_revenue_supmod_c": COST_DISCOUNT,
}


class BudgetError(ValueError):
    pass


def _direction(base: ContractInstance) -> str:
    direction = _DIRECTION_FOR_KIND.get(base.meta.get("kind"))
    if direction is None:
        raise ValueError("base is not a recognized equal-revenue construction")
    return direction


@dataclass(frozen=True)
class PerturbationBudget:
    """Strict upper bound on epsilon, with its three component minima:

    reward-bonus: (strict-submodularity margin of f,
                   min_t (c gap)/alpha_(t-1) - (f gap),
                   min_t f gap);
    cost-discount: (strict-supermodularity margin of c,
                    min_t c gap, min_t (alpha gap) * (f gap)).
    Frozen: one budget is shared by every caller of perturbation_budget.
    """

    epsilon_max: object
    components: tuple
    direction: str
    # the f and c table objects it was computed from (see perturbation_budget)
    f_table: object = field(repr=False, compare=False)
    c_table: object = field(repr=False, compare=False)

    def __post_init__(self):
        if not self.epsilon_max > 0:
            raise ConstructionIntegrityError(
                f"perturbation budget must be strictly positive, got {self.epsilon_max}"
            )

    @property
    def default_epsilon(self):
        return self.epsilon_max / 2


def _adjacent_submodularity_margin(tab, n, sense):
    """min over (S, i, j disjoint) of +-(v(i|S) - v(i|S+j)), in the table's
    own arithmetic, on whole marginal vectors (constructions._marginal_getters).

    sense +1 measures strict submodularity, -1 strict supermodularity.
    Equals the minimum over all nested pairs S < T: any nested marginal
    difference telescopes into nonnegative adjacent steps.  None when n = 1.
    """
    margins = []
    for up, down, hi, lo in _marginal_getters(n):
        if hi is None:
            continue
        marg = list(map(sub, up(tab), down(tab)))
        diffs = list(map(sub, lo(marg), hi(marg)))  # v(i | S) - v(i | S + j)
        margins.append(min(diffs) if sense > 0 else -max(diffs))
    return min(margins, default=None)


def _chain_tables(base: ContractInstance):
    """f, c and the chain's critical values; each budget term needs two
    chain gaps, so n >= 2, and the margin scan is exhaustive, so n <= 12.
    The tables come as tuples, an MpfTable's entries built once, since the
    terms read every entry more than once."""
    if not 2 <= base.n <= 12:
        raise ValueError(f"exhaustive bound needs 2 <= n <= 12, got n={base.n}")
    return tuple(base.f.value_table()), tuple(base.c.value_table()), chain_alphas(base)


def epsilon_bound_reward(base: ContractInstance) -> PerturbationBudget:
    """Three-way minimum bounding the reward bonus on the submodular-f base."""
    ftab, ctab, alphas = _chain_tables(base)
    size = base.size
    with base.ctx.workprec():
        c1 = _adjacent_submodularity_margin(ftab, base.n, +1)
        # alpha_table entry t is the critical value of S_t (alpha_0 = 0)
        c2 = min(
            (ctab[t] - ctab[t - 1]) / alphas[t - 1] - (ftab[t] - ftab[t - 1])
            for t in range(2, size)
        )
        c3 = min(ftab[t] - ftab[t - 1] for t in range(1, size))
        bound = min(c1, c2, c3)
    return PerturbationBudget(bound, (c1, c2, c3), REWARD_BONUS, base.f.table, base.c.table)


def epsilon_bound_cost(base: ContractInstance) -> PerturbationBudget:
    """Three-way minimum bounding the cost discount on the supermodular-c base."""
    ftab, ctab, alphas = _chain_tables(base)
    size = base.size
    with base.ctx.workprec():
        c1 = _adjacent_submodularity_margin(ctab, base.n, -1)
        c2 = min(ctab[t] - ctab[t - 1] for t in range(2, size))
        # alpha_table entry t-1 is the critical value of S_t here
        c3 = min(
            (alphas[t - 1] - alphas[t - 2]) * (ftab[t] - ftab[t - 1])
            for t in range(2, size)
        )
        bound = min(c1, c2, c3)
    return PerturbationBudget(bound, (c1, c2, c3), COST_DISCOUNT, base.f.table, base.c.table)


def epsilon_bound(base: ContractInstance) -> PerturbationBudget:
    if _direction(base) == REWARD_BONUS:
        return epsilon_bound_reward(base)
    return epsilon_bound_cost(base)


def perturbation_budget(base: ContractInstance) -> PerturbationBudget:
    """epsilon_bound(base), kept on the base: computed on first use and again
    whenever f.table or c.table is no longer the object it was computed
    from, as core.lower_hull keeps the hull."""
    budget = base.budget
    if budget is None or budget.f_table is not base.f.table or budget.c_table is not base.c.table:
        budget = base.budget = epsilon_bound(base)
    return budget


@dataclass
class PerturbedInstance:
    k: int
    epsilon: object
    instance: ContractInstance


def valid_k_range(base: ContractInstance, direction: str) -> range:
    """Cost discounts skip k=1: c(S_1) = 0 there, and a discount would
    break nonnegativity."""
    lo = 2 if direction == COST_DISCOUNT else 1
    return range(lo, base.size)


def _perturbed(base: ContractInstance, direction: str, k: int, epsilon) -> PerturbedInstance:
    """The family member at k, with k and epsilon already checked."""
    with base.ctx.workprec():
        if direction == REWARD_BONUS:
            tab = list(base.f.value_table())
            tab[k] = tab[k] + epsilon
            f = SetFunctionOracle(
                base.n, table=tab, declared_class="submodular", name=f"{base.f.name}+bonus"
            )
            c = base.c
        else:
            tab = list(base.c.value_table())
            tab[k] = tab[k] - epsilon
            c = SetFunctionOracle(
                base.n, table=tab, declared_class="supermodular", name=f"{base.c.name}-discount"
            )
            f = base.f
    inst = ContractInstance(
        n=base.n, f=f, c=c, ctx=base.ctx, name=f"{base.name} perturbed(k={k})"
    )
    inst.meta["kind"] = "perturbed"
    inst.meta["base_kind"] = base.meta.get("kind")
    inst.meta["k"] = k
    inst.meta["epsilon"] = epsilon
    inst.meta["direction"] = direction
    return PerturbedInstance(k=k, epsilon=epsilon, instance=inst)


def make_perturbed(base: ContractInstance, k: int, epsilon) -> PerturbedInstance:
    """Bonus f(S_k) += eps (submod-f base) or discount c(S_k) -= eps
    (supmod-c base)."""
    direction = _direction(base)
    if k not in valid_k_range(base, direction):
        raise BudgetError(f"k={k} outside valid range for {direction}")
    budget = perturbation_budget(base)
    if not (0 < epsilon < budget.epsilon_max):
        raise BudgetError(f"epsilon {epsilon} outside (0, {budget.epsilon_max})")
    return _perturbed(base, direction, k, epsilon)


def family_iterator(base: ContractInstance):
    """All single-set perturbations of the base, in increasing k, at the
    budget's default epsilon (perturbation_budget).
    """
    direction = _direction(base)
    epsilon = perturbation_budget(base).default_epsilon
    for k in valid_k_range(base, direction):
        yield _perturbed(base, direction, k, epsilon)
