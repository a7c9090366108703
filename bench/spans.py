"""Spans around calls into contractlab's public functions, for the traced run.

``Tracer.install`` replaces each listed function with a wrapper, both on its
own module and under every other name a contractlab module bound to it at
import (for example the names ``cli`` imports from ``serialize``).  Each call
appends one span [name, start, end, parent, item, bits] to an in-memory list;
``uninstall`` puts the originals back.  Busy time of an operation is the sum
of its spans' durations and self time subtracts the time of direct child
spans.  Hooks turn call arguments and results into cost-model counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from contractlab import cli, commlab, constructions, core, perturb, serialize, solver, sparse


def _file_bytes(counts, args, kwargs, result):
    path = args[-1]  # save_instance(inst, path) and load_instance(path)
    if isinstance(path, str) and os.path.isfile(path):
        counts["serialize.bytes"] += os.path.getsize(path)


def _breakpoints(counts, args, kwargs, result):
    counts["solver.breakpoints"] += len(result)


def _fptas(counts, args, kwargs, result):
    inst, eps = args[0], args[1] if len(args) > 1 else kwargs["eps"]
    queries = result.value_queries + result.best_response_queries
    constant = queries * float(eps) / inst.n**2
    counts["solver.fptas.query_constant"] = max(counts["solver.fptas.query_constant"], constant)


def _candidates(counts, args, kwargs, result):
    counts["sparse.candidates_total"] += len(result)
    counts["sparse.candidate_sets"] += 1
    counts["sparse.candidates_max"] = max(counts["sparse.candidates_max"], len(result))


def _protocol(counts, args, kwargs, result):
    transcript = args[2].transcript  # one fresh channel per call
    counts["commlab.protocol.bits_sent"] += transcript.total_bits
    per_br = transcript.total_bits // max(transcript.br_calls, 1)
    counts["commlab.protocol.bits_per_br_max"] = max(
        counts["commlab.protocol.bits_per_br_max"], per_br
    )


def _reduction(counts, args, kwargs, result):
    counts[f"commlab.reduction_mismatches.{result.variant}"] += not result.ok


# (module, attribute, span name, hook): the public boundaries the benchmark
# calls, directly or through the CLI
TARGETS = (
    (cli, "main", "cli.main", None),
    (serialize, "save_instance", "serialize.save", _file_bytes),
    (serialize, "load_instance", "serialize.load", _file_bytes),
    (solver, "enumerate_breakpoints", "solver.enumerate_breakpoints", _breakpoints),
    (solver, "optimal_contract", "solver.optimal_contract", None),
    (solver, "fptas", "solver.fptas", _fptas),
    (core, "best_response", "core.best_response", None),
    (core, "demand", "core.demand", None),
    (core, "supply", "core.supply", None),
    (constructions, "build_equal_revenue_submod_f", "constructions.build", None),
    (constructions, "build_equal_revenue_supmod_c", "constructions.build", None),
    (constructions, "verify_structure", "constructions.verify_structure", None),
    (perturb, "epsilon_bound", "perturb.epsilon_bound", None),
    (perturb, "make_perturbed", "perturb.make_perturbed", None),
    (sparse, "approx_demand", "sparse.approx_demand", _candidates),
    (sparse, "approx_supply", "sparse.approx_supply", _candidates),
    (sparse, "approx_best_response", "sparse.approx_best_response", None),
    (sparse, "simulate_demand_by_values", "sparse.simulate", None),
    (sparse, "simulate_supply_by_values", "sparse.simulate", None),
    (sparse, "minimal_ambiguous_census", "sparse.census", None),
    (sparse, "value_query_experiment", "sparse.value_query", None),
    (commlab, "build_augmented", "commlab.build_augmented", None),
    (commlab, "check_reduction", "commlab.check_reduction", _reduction),
    (commlab, "augmented_br_protocol", "commlab.protocol", _protocol),
)

OPERATIONS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
LEDGER_KINDS = ("value_queries", "best_response_queries", "demand_queries", "supply_queries")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.bits = None
        self.counts = defaultdict(int)
        self._patches = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, self.bits]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if key == "contractlab" or key.startswith("contractlab.")
        ]
        for module, attr, name, hook in TARGETS:
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        original_count = core.QueryLedger.count
        counts = self.counts

        def count(ledger, kind, argument=None):
            counts[f"core.ledger.{kind}"] += 1
            return original_count(ledger, kind, argument)

        self._patches.append((core.QueryLedger, "count", original_count))
        core.QueryLedger.count = count

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def operation_times(self):
        """{name: [calls, busy_s, self_s]} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in OPERATIONS}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name, (calls, busy, own) in self.operation_times().items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_s"] = (busy, "s")
            out[f"{name}.self_s"] = (own, "s")
        c = self.counts
        for kind in LEDGER_KINDS:
            out[f"core.ledger.{kind}"] = (c[f"core.ledger.{kind}"], "count")
        out["solver.breakpoints"] = (c["solver.breakpoints"], "count")
        out["solver.fptas.query_constant"] = (c["solver.fptas.query_constant"], "ratio")
        out["serialize.bytes"] = (c["serialize.bytes"], "B")
        sets = c["sparse.candidate_sets"]
        mean = c["sparse.candidates_total"] / sets if sets else 0
        out["sparse.candidates_mean"] = (mean, "count")
        out["sparse.candidates_max"] = (c["sparse.candidates_max"], "count")
        out["commlab.protocol.bits_sent"] = (c["commlab.protocol.bits_sent"], "bit")
        out["commlab.protocol.bits_per_br_max"] = (c["commlab.protocol.bits_per_br_max"], "bit")
        for v in commlab.VARIANTS:
            key = f"commlab.reduction_mismatches.{v}"
            out[key] = (c[key], "count")
        return out

    def write(self, path):
        """Write the spans as JSON: a header row, then one row per span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write('["name", "start_s", "end_s", "parent", "item", "bits"]\n')
            for name, start, end, parent, item, bits in self.spans:
                row = [name, round(start - origin, 7), round(end - origin, 7), parent, item, bits]
                fh.write(json.dumps(row) + "\n")

