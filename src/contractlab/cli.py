"""Command-line front end: construct, solve, verify, experiment.

Every command is deterministic given its flags (all randomness flows through
one seeded generator recorded in the output), and verification failures exit
nonzero.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .constructions import NAMED_CONSTRUCTIONS, SUBMOD_F, SUPMOD_C, build_named, kind_of
from .constructions import variant_kind
from .core import ContractInstance
from .serialize import (
    dump_csv,
    dump_json,
    instance_to_dict,
    load_instance,
    number_to_str,
    save_instance,
)
from .solver import chain_alphas


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> ContractInstance:
    """The --instance file or JSON text.  Input that does not read as an
    instance (not JSON, a table of the wrong length, an unknown oracle kind,
    a bad number) exits 1 with one line on stderr instead of a traceback."""
    try:
        return load_instance(args.instance)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise SystemExit(f"contractlab: cannot load instance: {type(exc).__name__}: {exc}")


def _on_chain(inst) -> bool:
    """Whether the tables form the equal-revenue chain of the instance's kind."""
    try:
        chain_alphas(inst)
    except ValueError:
        return False
    return True


def cmd_construct(args) -> int:
    params = {"n": args.n, "precision_bits": args.precision_bits, "grid_bits": args.grid_bits}
    inst = build_named(args.name, {k: v for k, v in params.items() if v is not None})
    if args.out:
        save_instance(inst, args.out)
    else:
        sys.stdout.write(dump_json(instance_to_dict(inst)))
    return 0


def cmd_solve(args) -> int:
    from .solver import csv_rows, enumerate_breakpoints, fptas, optimal_contract

    if args.format == "csv" and args.fptas is not None:  # the rows have no FPTAS column
        raise ValueError("--format csv does not take --fptas")
    inst = _load(args)
    if args.format == "csv":
        _emit(dump_csv(csv_rows(enumerate_breakpoints(inst, method=args.method))), args.out)
        return 0
    sol = optimal_contract(inst)
    report = {
        "instance": inst.name,
        "n": inst.n,
        "alpha_star": number_to_str(sol.alpha_star),
        "set_star_mask": sol.set_star.mask,
        "set_star": sorted(sol.set_star.members()),
        "principal_utility": number_to_str(sol.principal_utility),
        "co_optimal_breakpoints": sol.co_optimal,
        "breakpoint_count": sol.breakpoint_count,
    }
    if args.fptas is not None:
        approx = fptas(inst, args.fptas)
        ratio = None  # undefined when the exact optimum pays the principal 0
        if sol.principal_utility != 0:
            with inst.ctx.workprec():
                ratio = float(approx.principal_utility / sol.principal_utility)
        report["fptas"] = {
            "eps": args.fptas,
            "alpha": number_to_str(approx.alpha),
            "set_mask": approx.aset.mask,
            "principal_utility": number_to_str(approx.principal_utility),
            "ratio": ratio,
            "value_queries": approx.value_queries,
            "best_response_queries": approx.best_response_queries,
        }
    _emit(dump_json(report), args.out)
    return 0


def _check_structure(inst, report, seed):
    from .constructions import verify_structure

    ok = True
    for label, oracle in (("f", inst.f), ("c", inst.c)):
        r = verify_structure(oracle)
        report[f"structure_{label}"] = {
            "declared_class": oracle.declared_class,
            "ok": r.ok,
            "monotonicity_violations": len(r.monotonicity_violations),
            "class_violations": len(r.class_violations),
            "first_violations": [
                str(v) for v in (r.monotonicity_violations + r.class_violations)[:5]
            ],
        }
        ok = ok and r.ok
    return ok


def _check_equal_revenue(inst, report, seed):
    from .constructions import verify_equal_revenue

    tol = inst.ctx.maximizer_tolerance
    r = verify_equal_revenue(inst, tol)
    report["equal_revenue"] = {
        "ok": r.ok,
        "breakpoints": r.breakpoint_count,
        "expected": r.expected_count,
        "max_deviation": number_to_str(r.max_deviation),
    }
    return r.ok


def _check_gap_bounds(inst, report, seed):
    """The square-root recurrence's gap bounds (constructions.chain_gap_bounds)
    on the exact critical values of the instance's own tables, for an
    instance whose tables form the submodular-reward equal-revenue chain,
    the one construction the recurrence describes."""
    from .constructions import chain_gap_bounds

    if not _on_chain(inst):
        report["gap_bounds"] = {"ok": False, "reason": "needs an equal-revenue base"}
        return False
    if kind_of(inst) is not SUBMOD_F:
        reason = f"the square-root recurrence bounds only the {SUBMOD_F.name} chain"
        report["gap_bounds"] = {"ok": False, "reason": reason}
        return False
    r = chain_gap_bounds(chain_alphas(inst), inst.n)
    report["gap_bounds"] = {"ok": r.ok, "violations": [list(v) for v in r.violations[:10]]}
    return r.ok


def _check_sparse_demand(inst, report, seed):
    from .sparse import (
        approx_demand,
        minimal_ambiguous_census,
        random_prices,
        sigma_bound_demand,
        sparseness_ceiling,
    )

    if inst.c.weights is None or not _on_chain(inst):
        report["sparse_demand"] = {"ok": False, "reason": "needs additive-cost equal-revenue base"}
        return False
    try:
        sigma = sigma_bound_demand(inst).sigma
    except ValueError as exc:  # the n = 1 chain has no pair to bound sigma
        report["sparse_demand"] = {"ok": False, "reason": str(exc)}
        return False
    rng = random.Random(seed)
    cap = sparseness_ceiling(inst.n)
    max_size = 0
    trials = 200
    for _ in range(trials):
        prices = random_prices(inst.n, rng)
        d = approx_demand(inst.f, prices, sigma, inst.ctx)
        minimal_ambiguous_census(d, inst.n)  # raises on any interval-invariant violation
        max_size = max(max_size, len(d))
    ok = max_size <= cap
    report["sparse_demand"] = {
        "ok": ok,
        "trials": trials,
        "sigma": number_to_str(sigma),
        "max_demand_size": max_size,
        "ceiling": cap,
    }
    return ok


def _check_cc_invariants(inst, report, seed):
    from .commlab import SpecialSetVector, build_augmented
    from .constructions import verify_structure

    n = inst.n
    if n % 2:
        report["cc_invariants"] = {"ok": False, "reason": "even n required"}
        return False
    if not _on_chain(inst):
        report["cc_invariants"] = {"ok": False, "reason": "needs an equal-revenue base"}
        return False
    variant = kind_of(inst).variants[0]
    ones = SpecialSetVector.all_ones(n)
    aug = build_augmented(variant, inst, ones, ones)
    ok = True
    details = {"variant": variant, "z": number_to_str(aug.z), "delta": number_to_str(aug.delta)}
    for label, oracle in (("f_hat", aug.instance.f), ("c_hat", aug.instance.c)):
        r = verify_structure(oracle)
        details[label] = {"declared_class": oracle.declared_class, "ok": r.ok}
        ok = ok and r.ok
    details["z_positive"] = bool(aug.z > 0)
    ok = ok and aug.z > 0
    details["ok"] = ok
    report["cc_invariants"] = details
    return ok


CHECKERS = {
    "structure": _check_structure,
    "equal-revenue": _check_equal_revenue,
    "gap-bounds": _check_gap_bounds,
    "sparse-demand": _check_sparse_demand,
    "cc-invariants": _check_cc_invariants,
}
CHECKS = tuple(CHECKERS)


def cmd_verify(args) -> int:
    inst = _load(args)
    checks = args.checks or ["structure"]
    for chk in checks:
        if chk not in CHECKS:
            raise SystemExit(f"unknown check {chk!r}; choose from {CHECKS}")
    report = {"instance": inst.name, "n": inst.n, "checks": list(checks)}
    all_ok = True
    for chk in checks:
        ok = CHECKERS[chk](inst, report, args.seed)
        all_ok = all_ok and ok
    report["ok"] = all_ok
    _emit(dump_json(report), args.out)
    return 0 if all_ok else 1


def _experiment_value_query(args):
    from .constructions import build_equal_revenue_submod_f
    from .sparse import value_query_experiment

    base = build_equal_revenue_submod_f(args.n)
    stats = value_query_experiment(base, trials=args.trials, seed=args.seed)
    return stats.as_dict(), stats.ok


def _experiment_sim(args, kind):
    """The kind's query (demand on the reward-bonus family of
    equal_revenue_submod_f, supply on the cost-discount family of
    equal_revenue_supmod_c) answered by value queries, against the exact
    query on every hidden family member, at every breakpoint price vector
    and at --trials random ones per member, drawn member by member in
    increasing k.  sparse.simulate_family answers them with one scan of the
    base per price vector."""
    from .core import demand_prices_for_contract, supply_prices_for_contract
    from .sparse import random_prices, simulate_family, sparseness_ceiling

    base = build_named(kind.name, {"n": args.n})
    if kind.query == "demand":  # the prices that make the query a best response
        prices_for, partner = demand_prices_for_contract, base.c
    else:
        prices_for, partner = supply_prices_for_contract, base.f
    rng = random.Random(args.seed)
    agree = total = 0
    max_queries = 0
    with base.ctx.workprec():
        breakpoint_prices = [prices_for(partner, a) for a in chain_alphas(base) if a > 0]

    def own(k):
        return [random_prices(base.n, rng) for _ in range(args.trials)]

    for _, _, got, used, want in simulate_family(base, breakpoint_prices, own):
        total += 1
        agree += got == want
        max_queries = max(max_queries, used)
    out = {
        "n": args.n,
        "seed": args.seed,
        "random_prices_per_k": args.trials,
        "comparisons": total,
        "agreement": agree / total,
        "max_value_queries": max_queries,
        "query_ceiling": sparseness_ceiling(args.n),
    }
    return out, agree == total and max_queries <= sparseness_ceiling(args.n)


def _cc_base(variant, n):
    """The base of the variant's kind (constructions.variant_kind), at
    CC_PRECISION_BITS where the construction takes a precision."""
    from .commlab import CC_PRECISION_BITS

    name = variant_kind(variant).name
    bits = "precision_bits" in NAMED_CONSTRUCTIONS[name][1]
    return build_named(name, {"n": n, **({"precision_bits": CC_PRECISION_BITS} if bits else {})})


def _experiment_cc_sweep(args):
    from math import comb

    from .commlab import SpecialSetVector, build_augmented, check_reduction

    variant = args.variant or "sub-sub"
    n = args.n
    base = _cc_base(variant, n)
    rng = random.Random(args.seed)
    k = comb(n, n // 2)
    rows = [("pair_id", "x_f", "x_c", "disjoint", "augmenting", "match")]
    mismatches = 0
    if args.exhaustive:
        pairs = (
            (a, b) for a in range(1 << k) for b in range(1 << k)
        )
        count = (1 << k) * (1 << k)
    else:
        count = args.trials
        pairs = ((rng.getrandbits(k), rng.getrandbits(k)) for _ in range(count))
    for pid, (a, b) in enumerate(pairs):
        x_f = SpecialSetVector.from_int(n, a)
        x_c = SpecialSetVector.from_int(n, b)
        aug = build_augmented(variant, base, x_f, x_c)
        rep = check_reduction(aug, strict=False)
        rows.append((pid, a, b, not rep.expected, rep.augmenting, rep.ok))
        mismatches += not rep.ok
    summary = {
        "variant": variant,
        "n": n,
        "seed": args.seed,
        "pairs": count,
        "mismatches": mismatches,
    }
    return {"summary": summary, "rows": rows}, mismatches == 0


def _experiment_protocol_bench(args):
    from .commlab import SpecialSetVector, augmented_br_protocol, build_augmented, Channel
    from .core import best_response
    from .reals import exact

    n = args.n
    variant = args.variant or "sub-sub"
    base = _cc_base(variant, n)
    ones = SpecialSetVector.all_ones(n)
    aug = build_augmented(variant, base, ones, ones)
    width = base.precision_bits
    # exact alphas: an mpf alpha would score the exact augmented tables at
    # mpmath's ambient precision
    alphas = [exact(a) for a in chain_alphas(base)]
    matches = 0
    max_bits = 0
    br_calls = 0
    tested = alphas[: args.trials]  # every alpha when --trials is absent
    for a in tested:
        channel = Channel(width)
        got = augmented_br_protocol(aug, a, channel)
        want = best_response(aug.instance, a)
        matches += got == want
        max_bits = max(max_bits, channel.transcript.total_bits)
        br_calls += channel.transcript.br_calls
    out = {
        "variant": variant,
        "n": n,
        "width_bits": width,
        "alphas_tested": len(tested),
        "matches": matches,
        "max_bits_per_br": max_bits,
        "total_br_calls": br_calls,
    }
    return out, matches == len(tested)


RUNNERS = {
    "value-query": _experiment_value_query,
    "demand-sim": lambda args: _experiment_sim(args, SUBMOD_F),
    "supply-sim": lambda args: _experiment_sim(args, SUPMOD_C),
    "cc-sweep": _experiment_cc_sweep,
    "protocol-bench": _experiment_protocol_bench,
}
EXPERIMENTS = tuple(RUNNERS)
# the runs that read each optional flag; any other refuses it, even at its
# default.  cc-sweep --exhaustive runs every pair: it reads no --trials or --seed
SAMPLERS = ("value-query", "demand-sim", "supply-sim", "cc-sweep")
READERS = {
    "exhaustive": ("cc-sweep",),
    "variant": ("cc-sweep", "cc-sweep --exhaustive", "protocol-bench"),
    "trials": (*SAMPLERS, "protocol-bench"),
    "seed": SAMPLERS,
}


def cmd_experiment(args) -> int:
    if args.name not in RUNNERS:
        raise SystemExit(f"unknown experiment {args.name!r}; choose from {EXPERIMENTS}")
    run = args.name
    for flag, readers in READERS.items():
        if getattr(args, flag) is not None and run not in readers:
            raise ValueError(f"{run} does not take --{flag}")
        if flag == "exhaustive" and args.exhaustive:
            run += " --exhaustive"
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.name != "protocol-bench":  # which tests every alpha without --trials
        args.trials = args.trials or 100
    args.seed = 0 if args.seed is None else args.seed
    result, ok = RUNNERS[args.name](args)
    if args.format == "csv":
        rows = result["rows"] if "rows" in result else [tuple(result), tuple(result.values())]
        _emit(dump_csv(rows), args.out)
    else:
        if "rows" in result:
            result = {"summary": result["summary"], "rows": [list(r) for r in result["rows"][1:]]}
        _emit(dump_json(result), args.out)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use: building it is most of a small
    command's time, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="Construct, verify, solve, and experiment on contract instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a named instance as JSON")
    p.add_argument("name", choices=NAMED_CONSTRUCTIONS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--grid-bits", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="breakpoints and the optimal contract")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", default="hull", choices=("hull",))
    p.add_argument("--fptas", type=float, default=None, metavar="EPS")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run named checks; nonzero exit on failure")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("checks", nargs="*", metavar="CHECK", help=f"subset of {CHECKS}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", metavar="NAME", help=f"one of {EXPERIMENTS}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", default=None, choices=("sub-sub", "sub-sup", "sup-sup"))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command.  A ValueError it raises, such as a parameter out of
    the command's range, exits 1 with one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"contractlab: {args.command}: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
