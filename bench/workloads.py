"""The three workloads: seeded inputs, one pass of items, and exact checks.

A workload builds its inputs in ``setup`` (timed as set-up), runs its fixed
set of items in ``run_pass`` (timed as the pass; each item timed on its own),
and decides each recorded answer in ``check`` against the exact references
of ``reference.py``.  Program functions are always looked up on their module
at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from time import process_time

from contractlab import cli, commlab, constructions, core, perturb, serialize, sparse
from contractlab.core import ContractInstance, SetFunctionOracle

import reference as ref

FLOAT_BITS = 53


@dataclass
class Record:
    item: str
    output: object
    error: Exception | None
    ms: float


class Pass:
    """One pass over a workload's items: per-item times and answers.

    With a ``speed.Clock`` the pass is cut into segments of about SEGMENT_S
    of CPU time, with a speed reading after each; a segment's CPU time and
    the times of its items are scaled by the factor of the readings around
    it.  ``cpu`` and ``scaled`` sum the segments, readings excluded."""

    SEGMENT_S = 0.25

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.records: list[Record] = []
        self.cpu = self.scaled = 0.0
        self._segment = 0  # index of the segment's first record
        self._start = process_time()

    def run(self, item: str, bits: int, fn, *args):
        if self.tracer is not None:
            self.tracer.item, self.tracer.bits = item, bits
        error = output = None
        start = process_time()
        try:
            output = fn(*args)
        except Exception as exc:  # a raising item counts as failed; the pass goes on
            error = exc
        end = process_time()
        self.records.append(Record(item, output, error, (end - start) * 1e3))
        if self.clock is not None and end - self._start >= self.SEGMENT_S:
            self.close_segment()

    def close_segment(self):
        cpu = process_time() - self._start
        factor = self.clock.scale() if self.clock is not None else 1.0
        self.cpu += cpu
        self.scaled += cpu * factor
        for record in self.records[self._segment:]:
            record.ms *= factor
        self._segment = len(self.records)
        self._start = process_time()


class Workload:
    """Base: memoized checks keyed on the full question and answer."""

    SETUP_REPS = 25  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self._verdicts = {}
        self._references = {}  # every setup of one seed writes the same instances

    def verdict(self, record: Record, state) -> bool:
        if record.error is not None:
            return False
        try:
            key = self.answer_key(record, state)
            if key not in self._verdicts:
                self._verdicts[key] = bool(self.check(record, state))
            return self._verdicts[key]
        except Exception:  # a malformed answer is a failed item, not a crash
            return False

    def trace_metrics(self, state) -> dict:
        """Known-defect data of the reduction; zero where none is built."""
        return {
            f"commlab.{metric}.{variant}": (0.0, "ratio")
            for metric in ("drift", "revenue_halfwidth") for variant in commlab.VARIANTS
        }


def _value_key(x):
    """Hashable exact identity of a scalar (mpf, float, Fraction, int)."""
    return getattr(x, "_mpf_", x)


# --- cc-reduction -------------------------------------------------------------


@dataclass
class CCAnswer:
    aug: object
    f_ok: bool
    c_ok: bool
    report: object
    protocol_mask: int
    br_mask: int
    bits_sent: int


def _cc_item(variant, base, x_f, x_c):
    aug = commlab.build_augmented(variant, base, x_f, x_c)
    f_ok = constructions.verify_structure(aug.instance.f).ok
    c_ok = constructions.verify_structure(aug.instance.c).ok
    report = commlab.check_reduction(aug, strict=False)
    channel = commlab.Channel(base.precision_bits)
    got = commlab.augmented_br_protocol(aug, report.alpha_star, channel)
    want = core.best_response(aug.instance, report.alpha_star)
    return CCAnswer(aug, f_ok, c_ok, report, got.mask, want.mask, channel.transcript.total_bits)


class CCReduction(Workload):
    """Criteria 9 and 13 at controlled size: one indicator pair per item."""

    # (variant, n, pairs per pass); n=4 mpf sub-sub/sub-sup and exact sup-sup,
    # plus the n=6 sub-sup and sup-sup shapes of criterion 9's random sweep.
    # Sorted by time the pairs form blocks in this order.  The block sizes
    # put the median inside the n=4 sup-sup block and the 90th percentile in
    # the middle of the n=6 sup-sup block, away from the edges between
    # blocks, where a small change of speed would move them to another block.
    SPEC = (("sub-sub", 4, 30), ("sub-sup", 4, 30), ("sup-sup", 4, 60),
            ("sub-sup", 6, 12), ("sup-sup", 6, 33))

    def setup(self):
        rng = random.Random(self.seed)
        groups = []
        for variant, n, count in self.SPEC:
            if variant == "sup-sup":
                base = constructions.build_equal_revenue_supmod_c(n)
            else:
                base = constructions.build_equal_revenue_submod_f(
                    n, precision_bits=commlab.CC_PRECISION_BITS
                )
            k = comb(n, n // 2)
            pairs = []
            for _ in range(count):
                a, b = rng.getrandbits(k), rng.getrandbits(k)
                pairs.append((a, b, commlab.SpecialSetVector.from_int(n, a),
                              commlab.SpecialSetVector.from_int(n, b)))
            ones = commlab.SpecialSetVector.all_ones(n)
            # the indicator-independent part of the construction (perturbed
            # base, its critical values, z) is built once per base
            warm = commlab.build_augmented(variant, base, ones, ones)
            groups.append((variant, n, base, pairs, warm))
        return groups

    def run_pass(self, groups, p: Pass):
        for variant, n, base, pairs, _ in groups:
            for i, (a, b, x_f, x_c) in enumerate(pairs):
                p.run(f"{variant}/n{n}/{i}", base.precision_bits,
                      _cc_item, variant, base, x_f, x_c)

    def _pair(self, groups, item):
        variant, n, i = item.split("/")
        for v, size, base, pairs, _ in groups:
            if v == variant and f"n{size}" == n:
                return size, pairs[int(i)]
        raise KeyError(item)

    def answer_key(self, record, groups):
        out = record.output
        inst = out.aug.instance
        rep = out.report
        return (
            record.item,
            tuple(map(_value_key, inst.f.value_table())),
            tuple(map(_value_key, inst.c.value_table())),
            out.f_ok, out.c_ok, rep.set_star.mask, _value_key(rep.alpha_star),
            rep.augmenting, rep.expected, out.protocol_mask, out.br_mask, out.bits_sent,
        )

    def check(self, record, groups):
        out = record.output
        n, (a, b, _, _) = self._pair(groups, record.item)
        inst = out.aug.instance
        rep = out.report
        exact = ref.SolveReference(inst.f.value_table(), inst.c.value_table(), inst.precision_bits)
        alpha = rep.alpha_star
        bits = exact.arithmetic_bits(alpha)
        table_bits = exact.arithmetic_bits()
        width = out.aug.base.precision_bits
        return (
            out.f_ok in ref.structure_verdicts(exact.f, inst.f.declared_class, table_bits)
            and out.c_ok in ref.structure_verdicts(exact.c, inst.c.declared_class, table_bits)
            # a mismatch (augmenting != expected) is reported data, not a failure
            and rep.expected == bool(a & b)
            and rep.augmenting == bool(rep.set_star.mask >> n & 1)
            and exact.solution_ok(alpha, rep.set_star.mask, exact_params=bits is None)
            and out.protocol_mask == out.br_mask
            and ref.best_response_ok(exact.f, exact.c, ref.exact(alpha), out.protocol_mask, bits)
            and out.bits_sent <= 2 * ref.sparseness_ceiling(n) * width
        )

    def trace_metrics(self, groups):
        """Per variant at n=4: worst |u_p - 1| over the perturbed base's
        breakpoints (exact), next to the revenue half-width it should stay in."""
        out = super().trace_metrics(groups)
        for variant, n, _, _, warm in groups:
            if n != 4:
                continue
            perturbed = warm.perturbed
            table = ref.breakpoints(
                ref.Table(perturbed.f.value_table()), ref.Table(perturbed.c.value_table())
            )
            drift = max(abs(u - 1) for _, mask, u in table if mask)
            out[f"commlab.drift.{variant}"] = (float(drift), "ratio")
            out[f"commlab.revenue_halfwidth.{variant}"] = (float(warm.revenue_halfwidth), "ratio")
        return out


# --- solve ----------------------------------------------------------------------


@dataclass
class SolveItem:
    name: str
    path: str
    eps: float | None
    ftab: list
    ctab: list
    bits: int
    k: int | None = None  # hidden optimum of a perturbed-family member
    equal_revenue: bool = False

    def argv(self, out):
        args = ["solve", "--instance", self.path, "--method", "hull", "--out", out]
        if self.eps is not None:
            args += ["--fptas", str(self.eps)]
        return args


def monotone_tables(rng, n, granularity=64):
    """Random monotone tables on a 1/granularity grid, f(empty) = c(empty) = 0."""
    size = 1 << n
    f = [Fraction(0)] * size
    c = [Fraction(0)] * size
    for m in range(1, size):
        below = [m & ~(1 << i) for i in range(n) if m >> i & 1]
        f[m] = max(f[s] for s in below) + Fraction(rng.randrange(1, granularity), granularity)
        c[m] = max(c[s] for s in below) + Fraction(rng.randrange(0, granularity), granularity)
    return f, c


def _table_instance(ftab, ctab, convert):
    n = (len(ftab) - 1).bit_length()
    f = SetFunctionOracle(n, table=[convert(v) for v in ftab])
    c = SetFunctionOracle(n, table=[convert(v) for v in ctab])
    return ContractInstance(n=n, f=f, c=c)


def _solve_item(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"solve exited {code}")
    with open(argv[argv.index("--out") + 1]) as fh:
        return fh.read()


class Solve(Workload):
    """The CLI path `contractlab solve --method hull [--fptas eps]` in process,
    over JSON instances in three representations."""

    # Random monotone tables: ground-set sizes of the exact solves and the
    # (n, eps) of the (1 - eps) solves, by representation.  The sizes form
    # blocks of similar item times so that the median falls inside the n=6
    # exact solves and the 90th percentile inside the family's eps=0.2 solves,
    # for every seed.
    FLOAT_EXACT = (4,) * 12 + (6,) * 56
    FLOAT_FPTAS = tuple((n, eps) for n in (6, 7, 8) for eps in (0.2, 0.1, 0.01))
    FRACTION_EXACT = (3,) * 12
    FRACTION_FPTAS = tuple((n, eps) for n in (5, 6) for eps in (0.2, 0.1))
    FAMILY_SIZE = 12  # members of the perturbed n=10 family, all solved exactly
    FAMILY_FPTAS = (0.2,) * 10  # and the first ones also at eps 0.2
    SETUP_REPS = 5  # a set-up takes about 2.7 s; fewer make setup_s noisy

    def setup(self):
        rng = random.Random(self.seed)
        items = []

        def save(name, inst, *eps, k=None, equal_revenue=False):
            path = str(self.workdir / f"{name}.json")
            serialize.save_instance(inst, path)
            for e in eps:
                tag = name if e is None else f"{name}@{e}"
                items.append(SolveItem(tag, path, e, inst.f.value_table(), inst.c.value_table(),
                                       inst.precision_bits, k, equal_revenue))

        for n, bits in ((14, 420), (12, 360)):
            inst = constructions.build_equal_revenue_submod_f(n, precision_bits=bits)
            save(f"submod_f{n}", inst, None, equal_revenue=True)
        save("supmod_c8", constructions.build_equal_revenue_supmod_c(8), None, 0.2, 0.1,
             equal_revenue=True)
        base = constructions.build_equal_revenue_submod_f(10)
        eps = perturb.epsilon_bound(base).default_epsilon
        ks = rng.sample(range(1, base.size), self.FAMILY_SIZE)
        for i, k in enumerate(ks):
            member = perturb.make_perturbed(base, k, eps).instance
            save(f"family10_{i}", member, None, *self.FAMILY_FPTAS[i:i + 1], k=k)
        for kind, exact_ns, fptas_specs, convert in (
            ("float", self.FLOAT_EXACT, self.FLOAT_FPTAS, float),
            ("fraction", self.FRACTION_EXACT, self.FRACTION_FPTAS, Fraction),
        ):
            for i, n in enumerate(exact_ns):
                f, c = monotone_tables(rng, n)
                save(f"{kind}{n}_{i}", _table_instance(f, c, convert), None)
            for i, (n, e) in enumerate(fptas_specs):
                f, c = monotone_tables(rng, n)
                # a (1 - eps) guarantee needs a positive optimum; with none the
                # CLI's ratio divides by zero (reported, not benchmarked)
                while ref.SolveReference(f, c, FLOAT_BITS).optimum == 0:
                    f, c = monotone_tables(rng, n)
                save(f"{kind}{n}_fptas{i}", _table_instance(f, c, convert), e)
        return items

    def run_pass(self, items, p: Pass):
        for i, item in enumerate(items):
            out = str(self.workdir / f"report{i}.json")
            p.run(item.name, item.bits, _solve_item, item.argv(out))

    def answer_key(self, record, items):
        return record.item, record.output

    def check(self, record, items):
        item = next(it for it in items if it.name == record.item)
        if item.path not in self._references:
            self._references[item.path] = ref.SolveReference(item.ftab, item.ctab, item.bits)
        exact = self._references[item.path]
        report = json.loads(record.output)
        alpha_text = report["alpha_star"]
        n = exact.f.n
        mask = report["set_star_mask"]
        ok = report["n"] == n and exact.solution_ok(
            ref.parse_number(alpha_text), mask, ref.parse_number(report["principal_utility"]),
            exact_params=_is_rational_text(alpha_text),
        )
        if item.k is not None:
            ok = ok and mask == item.k
        if item.equal_revenue:  # every nonempty set is incentivized, each paying 1
            u = ref.parse_number(report["principal_utility"])
            nonempty = [v for _, m, v in exact.table if m]
            ok = ok and abs(u - 1) <= exact.tol and report["breakpoint_count"] == len(exact.table)
            ok = ok and len(nonempty) == (1 << n) - 1
            ok = ok and all(abs(v - 1) <= exact.tol for v in nonempty)
        if item.eps is not None:
            fp = report["fptas"]
            queries = fp["value_queries"] + fp["best_response_queries"]
            ok = ok and queries <= 4 * n**2 / item.eps and exact.solution_ok(
                ref.parse_number(fp["alpha"]), fp["set_mask"],
                ref.parse_number(fp["principal_utility"]),
                exact_params=_is_rational_text(fp["alpha"]), eps=item.eps,
            )
        return ok


def _is_rational_text(text: str) -> bool:
    """Whether a CLI number was written from an int or Fraction (no rounding)."""
    return "/" in text or text.lstrip("-").isdigit()


# --- query-sim --------------------------------------------------------------------


@dataclass
class QuerySimInputs:
    base6: object
    base8: object
    supmod6: object
    sigma8: object
    demand6: dict  # k -> price vectors
    ks8: list
    demand8: dict
    supply6: dict
    census8: list
    vq_seeds: list


def _simulate(simulate, oracle_query, base, hidden, prices, eps, ctx):
    got, used = simulate(base, hidden, prices, eps, ctx)
    want = oracle_query(hidden, prices, ctx)
    return got.mask, used, want.mask, hidden


def _demand_item(base, hidden, prices, eps):
    return _simulate(sparse.simulate_demand_by_values, core.demand,
                     base.f, hidden, prices, eps, base.ctx)


def _supply_item(base, hidden, prices, eps):
    return _simulate(sparse.simulate_supply_by_values, core.supply,
                     base.c, hidden, prices, eps, base.ctx)


def _census_item(base, prices, sigma):
    members = sparse.approx_demand(base.f, prices, sigma, base.ctx)
    return members.masks(), sparse.minimal_ambiguous_census(members, base.n)


def _value_query_item(base, trials, seed):
    return sparse.value_query_experiment(base, trials=trials, seed=seed)


class QuerySim(Workload):
    """Criteria 5-7 at controlled size: many cheap queries on small tables."""

    RANDOM6 = 2  # random price vectors per hidden k at n=6, plus one breakpoint vector
    KS8, PRICES8 = 16, 4  # hidden k's at n=8 and price vectors per k
    SUPPLY6 = 2  # random price vectors per hidden k of the supply mirror
    CENSUS8 = 250  # census probes at n=8
    VQ_ITEMS, VQ_TRIALS = 6, 200  # value-query experiments at n=8
    SETUP_REPS = 50  # a set-up takes under 10 ms

    def setup(self):
        rng = random.Random(self.seed)
        base6 = constructions.build_equal_revenue_submod_f(6)
        base8 = constructions.build_equal_revenue_submod_f(8)
        supmod6 = constructions.build_equal_revenue_supmod_c(6)
        alphas6 = base6.meta["alpha_table"]
        demand6 = {}
        for k in range(1, base6.size):
            t = rng.randrange(1, base6.size)
            prices = [core.demand_prices_for_contract(base6.c, alphas6[t])]
            demand6[k] = prices + [sparse.random_prices(6, rng) for _ in range(self.RANDOM6)]
        ks8 = sorted(rng.sample(range(1, base8.size), self.KS8))
        return QuerySimInputs(
            base6=base6,
            base8=base8,
            supmod6=supmod6,
            sigma8=sparse.sigma_bound_demand(base8).sigma,
            demand6=demand6,
            ks8=ks8,
            demand8={k: [sparse.random_prices(8, rng) for _ in range(self.PRICES8)] for k in ks8},
            supply6={k: [sparse.random_prices(6, rng) for _ in range(self.SUPPLY6)]
                     for k in range(2, supmod6.size)},
            census8=[sparse.random_prices(8, rng) for _ in range(self.CENSUS8)],
            vq_seeds=[rng.randrange(1 << 30) for _ in range(self.VQ_ITEMS)],
        )

    def run_pass(self, s: QuerySimInputs, p: Pass):
        # the hidden-optimum families are rebuilt every pass, as the
        # experiment runners do
        for fam in perturb.family_iterator(s.base6):
            for j, prices in enumerate(s.demand6[fam.k]):
                p.run(f"demand6/{fam.k}/{j}", FLOAT_BITS, _demand_item,
                      s.base6, fam.instance.f, prices, fam.epsilon)
        eps8 = perturb.epsilon_bound(s.base8).default_epsilon
        for k in s.ks8:
            hidden = perturb.make_perturbed(s.base8, k, eps8).instance.f
            for j, prices in enumerate(s.demand8[k]):
                p.run(f"demand8/{k}/{j}", FLOAT_BITS, _demand_item, s.base8, hidden, prices, eps8)
        for fam in perturb.family_iterator(s.supmod6):
            for j, prices in enumerate(s.supply6[fam.k]):
                p.run(f"supply6/{fam.k}/{j}", FLOAT_BITS, _supply_item,
                      s.supmod6, fam.instance.c, prices, fam.epsilon)
        for j, prices in enumerate(s.census8):
            p.run(f"census8/{j}", FLOAT_BITS, _census_item, s.base8, prices, s.sigma8)
        for j, seed in enumerate(s.vq_seeds):
            p.run(f"value_query8/{j}", FLOAT_BITS,
                  _value_query_item, s.base8, self.VQ_TRIALS, seed)

    def _question(self, s, item):
        kind, *rest = item.split("/")
        if kind == "census8":
            return kind, s.census8[int(rest[0])]
        if kind == "value_query8":
            return kind, s.vq_seeds[int(rest[0])]
        table = {"demand6": s.demand6, "demand8": s.demand8, "supply6": s.supply6}[kind]
        return kind, table[int(rest[0])][int(rest[1])]

    def answer_key(self, record, s):
        kind, question = self._question(s, record.item)
        out = record.output
        if kind == "value_query8":
            return kind, question, out.mean_queries, out.identified_all, out.trials
        if kind == "census8":
            return kind, question, tuple(out[0]), tuple(sorted(out[1].items()))
        got, used, want, hidden = out
        return kind, question, got, used, want, tuple(map(_value_key, hidden.value_table()))

    def check(self, record, s):
        kind, question = self._question(s, record.item)
        out = record.output
        if kind == "value_query8":
            return ref.value_query_ok(out, s.base8.n, self.VQ_TRIALS, question)
        if kind == "census8":
            members, buckets = out
            return ref.approx_demand_ok(
                ref.Table(s.base8.f.value_table()), question, s.sigma8, members, FLOAT_BITS
            ) and ref.census_ok(buckets, members, s.base8.n)
        got, used, want, hidden = out
        table = ref.Table(hidden.value_table())
        exact = ref.is_exact(question) and ref.is_exact(hidden.value_table())
        bits = None if exact else FLOAT_BITS
        query_ok = ref.supply_ok if kind == "supply6" else ref.demand_ok
        return (
            got == want
            and used <= ref.sparseness_ceiling(hidden.n)
            and query_ok(table, question, got, bits)
        )


WORKLOADS = {"cc-reduction": CCReduction, "solve": Solve, "query-sim": QuerySim}
