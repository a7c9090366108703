"""Pinned-size timings of single layers, reported as ``probe.*`` metrics.

The sizes are the ones whose seed figures the roadmap quotes, so a change to
one layer can be compared against a fixed yardstick.  Each probe runs its
call at least once and repeats it while under half a second has been spent,
at most three times, and reports the median.
"""

from __future__ import annotations

import statistics
from time import process_time

from contractlab import commlab, constructions, core, serialize, solver

BUDGET_S = 0.5


def timed(fn, setup=None):
    times = []
    while not times or (len(times) < 3 and sum(times) < BUDGET_S):
        arg = setup() if setup else None
        start = process_time()
        fn(arg) if setup else fn()
        times.append(process_time() - start)
    return statistics.median(times)


def run_probes(workdir) -> dict:
    out = {}
    submod = {}
    start = process_time()
    submod[14] = constructions.build_equal_revenue_submod_f(14, precision_bits=420)
    out["probe.build.n14_s"] = process_time() - start
    submod[12] = constructions.build_equal_revenue_submod_f(12, precision_bits=360)
    submod[8] = constructions.build_equal_revenue_submod_f(8)
    for n in (8, 12, 14):
        inst = submod[n]
        out[f"probe.hull.n{n}_s"] = timed(
            lambda: solver.enumerate_breakpoints(inst, method="hull")
        )
    for n in (12, 14):
        inst = submod[n]
        alpha = inst.meta["alpha_table"][inst.size // 2]
        out[f"probe.best_response.n{n}_s"] = timed(lambda: core.best_response(inst, alpha))
    for n in (8, 10):
        exact_c = constructions.build_equal_revenue_supmod_c(n).c
        wide_f = constructions.build_equal_revenue_submod_f(n, precision_bits=192).f
        out[f"probe.verify_structure.n{n}_fraction_s"] = timed(
            lambda: constructions.verify_structure(exact_c)
        )
        out[f"probe.verify_structure.n{n}_mpf192_s"] = timed(
            lambda: constructions.verify_structure(wide_f)
        )
    out["probe.fptas.n8_eps0.01_s"] = timed(lambda: solver.fptas(submod[8], 0.01))
    bases = []  # kept alive: the augmentation cache is keyed by object id
    for variant in commlab.VARIANTS:

        def fresh_base():
            if variant == "sup-sup":
                base = constructions.build_equal_revenue_supmod_c(4)
            else:
                base = constructions.build_equal_revenue_submod_f(
                    4, precision_bits=commlab.CC_PRECISION_BITS
                )
            bases.append(base)
            return base

        ones = commlab.SpecialSetVector.all_ones(4)
        out[f"probe.augment_and_check.{variant}_s"] = timed(
            lambda base: commlab.check_reduction(
                commlab.build_augmented(variant, base, ones, ones), strict=False
            ),
            setup=fresh_base,
        )
    path = str(workdir / "probe_n14.json")
    out["probe.save.n14_s"] = timed(lambda: serialize.save_instance(submod[14], path))
    out["probe.load.n14_s"] = timed(lambda: serialize.load_instance(path))
    return {name: (value, "s") for name, value in out.items()}
