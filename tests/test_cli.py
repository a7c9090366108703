"""Command-line interface: determinism, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import example, given, settings

from contractlab import solver
from contractlab.cli import build_parser, main
from contractlab.core import ContractInstance, SetFunctionOracle
from contractlab.core import _scaled_ints
from contractlab.reals import MAX_BITS, MpfTable
from contractlab.serialize import (
    _oracle_from_dict,
    _oracle_to_dict,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    number_from_str,
    number_to_str,
    save_instance,
)
from contractlab.constructions import build_equal_revenue_submod_f, build_equal_revenue_supmod_c
from contractlab.solver import chain_alphas, enumerate_breakpoints, optimal_contract


def run(args):
    return main(args)


class TestSerialization:
    def test_number_round_trip(self):
        import mpmath

        vals = [0, -3, Fraction(7, 6), 0.1, -2.5e-7]
        with mpmath.workprec(192):
            vals.append(mpmath.mpf(2) ** 0.5)
        for v in vals:
            assert number_from_str(number_to_str(v)) == v

    @settings(max_examples=300, deadline=None)
    @given(
        man=st.one_of(
            st.integers(-(1 << 1000), 1 << 1000),
            st.builds(lambda m, k: m << k, st.integers(-(1 << 900), 1 << 900), st.integers(1, 100)),
        ),
        exp=st.integers(-1200, 50),
    )
    @example(man=0, exp=-1200)
    @example(man=-(1 << 999), exp=50)
    def test_mpf_parse_is_exact(self, man, exp):
        # the same normalized tuple as ldexp at a precision that holds the
        # whole mantissa, zero and even mantissas included
        with mpmath.workprec(max(man.bit_length(), 2) + 8):
            want = mpmath.ldexp(mpmath.mpf(man), exp)._mpf_
        assert number_from_str(f"{man}p{exp}")._mpf_ == want

    # "m p e" strings as save_instance never writes them too: even and zero
    # mantissas, negative ones, padding, exponents far apart
    MANTISSA = st.one_of(
        st.integers(-(1 << 400), 1 << 400),
        st.builds(lambda m, k: m << k, st.integers(-(1 << 300), 1 << 300), st.integers(1, 60)),
        st.just(0),
    )
    PAD = st.sampled_from(["", " ", "\t", "\n  ", "\u2003", "\xa0"])
    MPE = st.builds(lambda a, m, e, b: f"{a}{m}p{e}{b}", PAD, MANTISSA, st.integers(-3000, 3000), PAD)
    BAD = st.sampled_from(["1p", "p3", "1p2p3", "nan", "inf", "p", "1.5p3", "1e3p2", "--1p3", "", " "])
    OTHER = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(float.hex),
        st.fractions(max_denominator=10**6).map(lambda x: f"{x.numerator}/{x.denominator}"),
        st.integers(-(10**30), 10**30).map(str),
        st.just(7),  # a JSON number where the format writes a string
    )

    @staticmethod
    def key(v):
        return v._mpf_ if isinstance(v, mpmath.mpf) else (type(v), v)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 3), kind=st.sampled_from(["mpe", "mpe", "bad", "mixed"]), data=st.data())
    def test_int_path_parity_with_number_from_str(self, n, kind, data):
        # a table of "m p e" strings is read as ints over one power of two,
        # entry for entry the mpfs number_from_str gives, or it fails as
        # number_from_str fails; any other table takes number_from_str itself
        values = data.draw(st.lists(self.MPE, min_size=1 << n, max_size=1 << n))
        if kind != "mpe":
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
                self.BAD if kind == "bad" else self.OTHER
            )
        d = {"kind": "table", "values": values}
        try:
            want = [number_from_str(v) for v in values]
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc)):
                _oracle_from_dict(n, d)
            return
        oracle = _oracle_from_dict(n, d)
        tab = oracle.value_table()
        all_mpf = all(isinstance(w, mpmath.mpf) for w in want)
        assert isinstance(tab, MpfTable if all_mpf else tuple) and kind in ("mpe", "mixed")
        assert [self.key(v) for v in tab] == [self.key(w) for w in want]
        assert _oracle_to_dict(oracle)["values"] == [number_to_str(w) for w in want]
        if all_mpf:
            assert (list(tab.ints), *oracle.scaled()[1:]) == _scaled_ints(want)

    def test_n14_round_trip_keeps_every_mpf(self, tmp_path):
        inst = build_equal_revenue_submod_f(14, precision_bits=420)
        path = tmp_path / "n14.json"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert [v._mpf_ for v in back.f.value_table()] == [
            v._mpf_ for v in inst.f.value_table()
        ]

    @pytest.mark.parametrize("kind", ["int", "fraction", "mpf", "weight"])
    def test_an_int_past_the_format_limit_names_it(self, kind, tmp_path):
        # Python converts at most 4,300 decimal digits between int and str;
        # a table holding a wider int is refused before the file is opened
        big = 10**4400 + 1  # odd, so an mpf keeps it as its mantissa
        if kind == "weight":
            f = SetFunctionOracle(1, weights=[big], name="wide")
        elif kind == "mpf":
            f = SetFunctionOracle(1, table=MpfTable([0, big], 1, False), name="wide")
        else:
            f = SetFunctionOracle(1, table=[0, big if kind == "int" else Fraction(1, big)],
                                  name="wide")
        inst = ContractInstance(n=1, f=f, c=SetFunctionOracle(1, table=[0, 1]))
        path = tmp_path / "wide.json"
        with pytest.raises(ValueError, match="'wide'.*4,300 decimal digits") as info:
            save_instance(inst, str(path))
        assert isinstance(info.value.__cause__, ValueError)
        assert not path.exists()

    def test_instance_round_trip_preserves_solution(self):
        for inst in (build_equal_revenue_submod_f(3), build_equal_revenue_supmod_c(3)):
            back = instance_from_dict(json.loads(dump_json(instance_to_dict(inst))))
            assert back.f.value_table() == inst.f.value_table()
            assert back.c.value_table() == inst.c.value_table()
            a = optimal_contract(inst)
            b = optimal_contract(back)
            assert (a.alpha_star, a.set_star) == (b.alpha_star, b.set_star)


class TestConstructSolveVerify:
    def test_construct_writes_full_tables(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["construct", "equal_revenue_submod_f", "--n", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 3
        assert len(data["f"]["values"]) == 8
        assert data["c"]["kind"] == "additive"

    def test_construct_rounded_grid(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["construct", "rounded", "--n", "2", "--grid-bits", "60", "--out", str(out)]) == 0
        inst = load_instance(str(out))
        table = inst.f.value_table()
        with inst.ctx.workprec():
            for fv in table:
                a = 1 - 1 / fv  # recover the rounded critical value
                assert a * (1 << 60) == int(a * (1 << 60))

    def test_solve_json_and_csv(self, tmp_path):
        inst_path = tmp_path / "i.json"
        run(["construct", "equal_revenue_submod_f", "--n", "3", "--out", str(inst_path)])
        out = tmp_path / "sol.json"
        assert run(["solve", "--instance", str(inst_path), "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        # the tables' own utilities tie with 1 only to rounding, so the
        # report is whatever the loaded tables' optimum is
        want = optimal_contract(load_instance(str(inst_path)))
        assert sol["set_star"] == sorted(want.set_star.members())
        assert sol["alpha_star"] == number_to_str(want.alpha_star)
        assert len(sol["co_optimal_breakpoints"]) == len(want.co_optimal) == 8
        csv_out = tmp_path / "t.csv"
        run(["solve", "--instance", str(inst_path), "--format", "csv", "--out", str(csv_out)])
        header = csv_out.read_text().splitlines()[0]
        assert header == "t,alpha,set_mask,f,c,agent_utility,principal_utility"
        for method in ("scan", "auto"):
            with pytest.raises(SystemExit) as exc:
                run(["solve", "--instance", str(inst_path), "--method", method])
            assert exc.value.code == 2

    def test_solve_csv_round_trip(self, tmp_path):
        """Every CSV number reads back as the breakpoint table's own value:
        330-bit mpf rows at n=11, and exact Fraction alphas of int tables."""
        wide = tmp_path / "wide.json"
        run(["construct", "equal_revenue_submod_f", "--n", "11", "--precision-bits", "330",
             "--out", str(wide)])
        ints = tmp_path / "ints.json"
        save_instance(
            ContractInstance(
                n=2, f=SetFunctionOracle(2, table=[0, 3, 3, 7]),
                c=SetFunctionOracle(2, table=[0, 1, 1, 4]),
            ),
            str(ints),
        )
        for path, rows in ((wide, 2048), (ints, 3)):
            out = tmp_path / "t.csv"
            assert run(["solve", "--instance", str(path), "--format", "csv",
                        "--out", str(out)]) == 0
            lines = out.read_text().splitlines()[1:]
            table = enumerate_breakpoints(load_instance(str(path)))
            assert len(lines) == len(table) == rows
            for line, b in zip(lines, table):
                t, alpha, mask, f, c, agent, principal = line.split(",")
                assert (int(t), int(mask)) == (b.position, b.aset.mask)
                got = [number_from_str(x) for x in (alpha, f, c, agent, principal)]
                assert got == [b.alpha, b.f_value, b.c_value, b.agent_utility,
                               b.principal_utility]
        assert [ln.split(",")[1] for ln in lines] == ["0", "1/3", "3/4"]

    def test_solve_fptas_report(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        run(["construct", "equal_revenue_supmod_c", "--n", "3", "--out", str(inst_path)])
        assert run(["solve", "--instance", str(inst_path), "--fptas", "0.1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["fptas"]["ratio"] >= 0.9

    def test_solve_fptas_zero_optimum(self, tmp_path, capsys):
        # every nonempty set costs more than it returns: the exact optimum
        # pays the principal 0, so the approximation ratio is undefined
        tables = {"f": (0.0, 1.0, 1.0, 2.0), "c": (0.0, 5.0, 5.0, 10.0)}
        spec = {"n": 2}
        for key, vals in tables.items():
            spec[key] = {"kind": "table", "values": [number_to_str(v) for v in vals]}
        inst_path = tmp_path / "zero.json"
        inst_path.write_text(json.dumps(spec))
        assert run(["solve", "--instance", str(inst_path), "--fptas", "0.1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["principal_utility"] == number_to_str(0.0)
        assert rep["fptas"]["ratio"] is None
        assert rep["fptas"]["principal_utility"] == number_to_str(0.0)

    def test_verify_passes_and_fails(self, tmp_path):
        inst_path = tmp_path / "i.json"
        run(["construct", "equal_revenue_submod_f", "--n", "4", "--out", str(inst_path)])
        assert run(["verify", "--instance", str(inst_path), "structure", "equal-revenue"]) == 0
        # corrupt the reward table: breaks monotonicity
        data = json.loads(inst_path.read_text())
        data["f"]["values"][7] = number_to_str(0.0)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(data))
        assert run(["verify", "--instance", str(bad_path), "structure"]) == 1

    def test_verify_cc_invariants(self, tmp_path):
        def check(n, *bits):
            inst_path = tmp_path / f"i{n}{bits}.json"
            flags = ["--precision-bits", str(bits[0])] if bits else []
            run(["construct", "equal_revenue_submod_f", "--n", str(n), *flags,
                 "--out", str(inst_path)])
            out = tmp_path / "rep.json"
            code = run(["verify", "--instance", str(inst_path), "--out", str(out),
                        "cc-invariants"])
            return code, json.loads(out.read_text())["cc_invariants"]

        code, rep = check(4, 192)
        assert code == 0 and rep["ok"] and rep["f_hat"]["ok"] and rep["c_hat"]["ok"]
        # the augmentation is exact, so the default 53-bit base passes too
        code, rep = check(4)
        assert code == 0 and rep["ok"] and rep["f_hat"]["ok"] and rep["c_hat"]["ok"]
        code, rep = check(3, 192)
        assert code == 1 and rep == {"ok": False, "reason": "even n required"}
        # a rounded base has no critical-value table to perturb against
        rounded = tmp_path / "r.json"
        run(["construct", "rounded", "--n", "4", "--out", str(rounded)])
        out = tmp_path / "rep.json"
        assert run(["verify", "--instance", str(rounded), "--out", str(out), "cc-invariants"]) == 1
        assert json.loads(out.read_text())["cc_invariants"] == {
            "ok": False, "reason": "needs an equal-revenue base",
        }

    def test_gap_bounds_only_on_the_submod_f_chain(self, tmp_path):
        # the square-root recurrence is the submodular-reward chain's; the
        # supermodular-cost chain's alphas (t-1)/t are not bounded by it
        out = tmp_path / "rep.json"
        for kind, n, code in (("equal_revenue_supmod_c", 3, 1), ("equal_revenue_submod_f", 4, 0)):
            inst_path = tmp_path / f"{kind}.json"
            run(["construct", kind, "--n", str(n), "--out", str(inst_path)])
            assert run(["verify", "--instance", str(inst_path), "--out", str(out),
                        "gap-bounds"]) == code
            report = json.loads(out.read_text())["gap_bounds"]
            assert report["ok"] is (code == 0)
            assert ("reason" in report) is (code == 1)

    def test_gap_bounds_read_the_tables_own_chain(self, tmp_path):
        # f = 1, 3, 5 - 2^-30, 6.5 - 2^-30 over c = 0, 1, 2, 3 is still the
        # chain S_0..S_3, with alphas 1/2, about 1/2 + 2^-32 and about 2/3;
        # but alpha_2 - alpha_1 is below (1 - alpha_1)^3 = 1/8
        data = json.loads(run_construct("equal_revenue_submod_f", 2))
        f = (1.0, 3.0, 5 - 2.0**-30, 6.5 - 2.0**-30)
        data["f"]["values"] = [number_to_str(v) for v in f]
        path, out = tmp_path / "tampered.json", tmp_path / "rep.json"
        path.write_text(json.dumps(data))
        assert [m for _, m in solver.critical_values(load_instance(str(path)))] == [0, 1, 2, 3]
        assert run(["verify", "--instance", str(path), "--out", str(out), "gap-bounds"]) == 1
        report = json.loads(out.read_text())["gap_bounds"]
        assert report == {"ok": False, "violations": [[1, "cube lower bound"]]}

    def test_sparse_demand_on_the_two_set_chain(self, tmp_path):
        # the n = 1 chain has no adjacent pair of critical values to bound
        # sigma: a refusal with a reason, not a traceback
        path, out = tmp_path / "n1.json", tmp_path / "rep.json"
        run(["construct", "equal_revenue_submod_f", "--n", "1", "--out", str(path)])
        assert run(["verify", "--instance", str(path), "--out", str(out), "sparse-demand"]) == 1
        report = json.loads(out.read_text())["sparse_demand"]
        assert report["ok"] is False and report["reason"]

    def test_verify_unknown_check(self, tmp_path):
        inst_path = tmp_path / "i.json"
        run(["construct", "equal_revenue_submod_f", "--n", "3", "--out", str(inst_path)])
        with pytest.raises(SystemExit):
            run(["verify", "--instance", str(inst_path), "vibes"])

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["construct", "equal_revenue_submod_f", "--n", "4", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
        ea, eb = tmp_path / "ea.json", tmp_path / "eb.json"
        for out in (ea, eb):
            run(
                [
                    "experiment", "value-query", "--n", "4",
                    "--trials", "50", "--seed", "7", "--out", str(out),
                ]
            )
        assert ea.read_bytes() == eb.read_bytes()


class TestExperiments:
    def test_value_query_ok_exit(self, tmp_path):
        out = tmp_path / "vq.json"
        code = run(
            ["experiment", "value-query", "--n", "5", "--trials", "300",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] and rep["seed"] == 1

    def test_demand_sim(self, tmp_path):
        out = tmp_path / "ds.json"
        assert run(
            ["experiment", "demand-sim", "--n", "4", "--trials", "5",
             "--seed", "2", "--out", str(out)]
        ) == 0
        rep = json.loads(out.read_text())
        assert rep["agreement"] == 1.0
        assert rep["max_value_queries"] <= rep["query_ceiling"]

    def test_supply_sim(self, tmp_path):
        out = tmp_path / "ss.csv"
        assert run(
            ["experiment", "supply-sim", "--n", "4", "--trials", "5",
             "--seed", "2", "--format", "csv", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "n,seed,random_prices_per_k,comparisons,agreement,"
            "max_value_queries,query_ceiling"
        )
        rep = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(rep["agreement"]) == 1.0
        assert int(rep["max_value_queries"]) <= int(rep["query_ceiling"])

    def test_cc_sweep_disjoint_only_random_seed(self, tmp_path):
        # a tiny random sweep: the reduction answers every pair, so the
        # sweep exits 0 with no mismatch rows
        out = tmp_path / "cc.csv"
        code = run(
            ["experiment", "cc-sweep", "--n", "4", "--variant", "sub-sub",
             "--trials", "8", "--seed", "3", "--format", "csv", "--out", str(out)]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "pair_id,x_f,x_c,disjoint,augmenting,match"
        assert len(lines) == 9
        assert not any(ln.endswith("False") for ln in lines[1:])
        assert code == 0

    def test_protocol_bench(self, tmp_path):
        out = tmp_path / "pb.json"
        assert run(
            ["experiment", "protocol-bench", "--n", "4", "--variant", "sup-sup",
             "--trials", "6", "--out", str(out)]
        ) == 0
        rep = json.loads(out.read_text())
        assert rep["matches"] == rep["alphas_tested"]

    def test_protocol_bench_tests_every_alpha_without_trials(self, capsys):
        # n = 8 has 255 critical values, past the other experiments' 100
        assert run(["experiment", "protocol-bench", "--n", "8", "--variant", "sup-sup"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["alphas_tested"] == rep["matches"] == 255

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            run(["experiment", "astrology", "--n", "4"])


def solve_report(spec: dict) -> dict:
    """The JSON report of `solve` on an instance given as a JSON dict."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["solve", "--instance", json.dumps(spec)]) == 0
    return json.loads(buf.getvalue())


def run_construct(kind: str, n: int) -> str:
    """The JSON `construct` writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["construct", kind, "--n", str(n)]) == 0
    return buf.getvalue()


class TestTablesAreTheTruth:
    """Every answer comes from the f and c tables, never from meta."""

    def test_zeroed_reward_solves_to_zero(self, tmp_path):
        path = tmp_path / "i.json"
        run(["construct", "equal_revenue_submod_f", "--n", "4", "--out", str(path)])
        data = json.loads(path.read_text())
        assert data["meta"] == {"kind": "equal_revenue_submod_f"}
        data["f"]["values"] = [number_to_str(0.0)] * 16
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            chain_alphas(load_instance(str(path)))
        rep = solve_report(data)
        assert rep["principal_utility"] == number_to_str(0.0)
        assert rep["breakpoint_count"] == 1
        for check in ("equal-revenue", "sparse-demand", "gap-bounds"):
            out = tmp_path / f"{check}.json"
            assert run(["verify", "--instance", str(path), "--out", str(out), check]) == 1
        assert json.loads(out.read_text())["gap_bounds"]["reason"]

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["equal_revenue_submod_f", "equal_revenue_supmod_c"]),
        n=st.integers(1, 4),
        side=st.sampled_from(["f", "c"]),
        pick=st.integers(0, 15),
        num=st.integers(0, 40),
        den=st.integers(1, 8),
    )
    def test_one_tampered_entry_solves_as_without_meta(self, kind, n, side, pick, num, den):
        data = json.loads(run_construct(kind, n))
        oracle = data[side]
        entries = oracle["weights"] if oracle["kind"] == "additive" else oracle["values"]
        old = number_from_str(entries[pick % len(entries)])
        new = Fraction(num, den)
        if isinstance(old, float):
            new = float(new)
        elif isinstance(old, int):
            new = num
        entries[pick % len(entries)] = number_to_str(new)
        bare = {key: v for key, v in data.items() if key != "meta"}
        if side == "c" and oracle["kind"] == "table" and pick % len(entries) == 0 and new:
            # a cost of the empty set other than 0 is refused at load, meta or not
            for spec in (data, bare):
                with pytest.raises(SystemExit, match="cost of the empty set must be 0"):
                    run(["solve", "--instance", json.dumps(spec)])
            return
        assert solve_report(data) == solve_report(bare)


class TestComputedOnce:
    def test_one_critical_value_pass_per_solve(self, tmp_path, monkeypatch):
        # load derives nothing; a JSON solve, with or without --fptas, scores
        # the hull without the critical values and builds the winner's row
        # only, and a CSV solve reads the critical values once
        path = tmp_path / "i.json"
        save_instance(build_equal_revenue_submod_f(6), str(path))
        calls = dict.fromkeys(("critical_values", "_make_breakpoint"), 0)
        for name in calls:

            def counted(*args, name=name, original=getattr(solver, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(solver, name, counted)
        load_instance(str(path))
        assert calls == {"critical_values": 0, "_make_breakpoint": 0}
        out = tmp_path / "r.out"
        for extra in ([], ["--fptas", "0.1"]):
            calls.update(dict.fromkeys(calls, 0))
            assert run(["solve", "--instance", str(path), "--out", str(out), *extra]) == 0
            assert calls == {"critical_values": 0, "_make_breakpoint": 1}
        calls.update(dict.fromkeys(calls, 0))
        assert run(["solve", "--instance", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert calls == {"critical_values": 1, "_make_breakpoint": 64}


class TestMalformedInput:
    """A file that does not read as an instance, or a parameter out of a
    command's range, ends the command with one line, not a traceback."""

    @staticmethod
    def spoiled(fault) -> str:
        data = json.loads(run_construct("equal_revenue_supmod_c", 3))
        if fault == "not-json":
            return json.dumps(data)[:-2]
        if fault == "table-length":
            data["c"]["values"].pop()
        elif fault == "oracle-kind":
            data["c"]["kind"] = "lookup"
        elif fault == "named-oracle":  # a construction's name in place of tables
            data["f"] = {"kind": "named", "construction": "equal_revenue_supmod_c"}
        elif fault == "tie-break":
            data["tie_break"] = "coin-flip"
        elif fault == "number":
            data["c"]["values"][3] = "3/x"
        else:  # a JSON number where the format writes a string
            data["c"]["values"][3] = 3
        return json.dumps(data)

    @pytest.mark.parametrize(
        "fault",
        ["not-json", "table-length", "oracle-kind", "named-oracle", "tie-break", "number",
         "unquoted-number"],
    )
    @pytest.mark.parametrize("command", [["solve"], ["verify", "structure"]])
    def test_one_line_and_nonzero_exit(self, tmp_path, fault, command):
        path = tmp_path / "bad.json"
        path.write_text(self.spoiled(fault))
        with pytest.raises(SystemExit) as exc:
            run([command[0], "--instance", str(path), *command[1:]])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("contractlab: cannot load instance: ")

    @pytest.mark.parametrize(
        "fault, reason",
        [
            ("negative-cost-weight", "negative weight is not monotone"),
            ("cost-of-empty-set", "cost of the empty set must be 0"),
        ],
    )
    @pytest.mark.parametrize("command", [["solve"], ["verify", "structure"]])
    def test_inconsistent_instance_refused(self, tmp_path, fault, reason, command):
        data = json.loads(run_construct("equal_revenue_submod_f", 3))
        if fault == "negative-cost-weight":
            data["c"]["weights"][1] = number_to_str(-5)
        else:  # the additive cost as its table, with c(empty set) = 1
            values = [number_to_str(m) for m in range(8)]
            values[0] = number_to_str(1)
            data["c"] = {"kind": "table", "values": values, "declared_class": "additive"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            run([command[0], "--instance", str(path), *command[1:]])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("contractlab: cannot load instance: ") and reason in message

    @staticmethod
    def assert_refused(data, reason: str):
        """solve and verify both end with one line naming the reason (a
        SystemExit with a message: exit status 1, the message on stderr).
        data is the instance as a dict or as its JSON text."""
        text = data if isinstance(data, str) else json.dumps(data)
        for command in (["solve"], ["verify", "structure"]):
            with pytest.raises(SystemExit) as exc:
                run([command[0], "--instance", text, *command[1:]])
            message = exc.value.code
            assert isinstance(message, str) and "\n" not in message
            assert message.startswith("contractlab: cannot load instance: ") and reason in message

    # a nonzero number in every representation the format writes
    NONZERO = st.one_of(
        st.integers(1, 10**30),
        st.fractions(min_value=Fraction(1, 10**12), max_value=10**6),
        st.floats(min_value=5e-324, max_value=1e300),
        st.builds(lambda m, e: mpmath.mpf((0, m, e, m.bit_length())),
                  st.integers(1, 1 << 200).filter(lambda m: m % 2), st.integers(-300, 300)),
    )

    @settings(max_examples=15, deadline=None)
    @given(position=st.integers(0, 2), magnitude=NONZERO)
    def test_any_negative_weight_refused(self, position, magnitude):
        data = json.loads(run_construct("equal_revenue_submod_f", 3))
        data["c"]["weights"][position] = number_to_str(-magnitude)
        self.assert_refused(data, "negative weight is not monotone")

    @settings(max_examples=15, deadline=None)
    @given(cost=NONZERO, negative=st.booleans())
    def test_any_nonzero_cost_of_the_empty_set_refused(self, cost, negative):
        data = json.loads(run_construct("equal_revenue_submod_f", 3))
        values = [number_to_str(m) for m in range(8)]  # the additive cost as its table
        values[0] = number_to_str(-cost if negative else cost)
        data["c"] = {"kind": "table", "values": values, "declared_class": "additive"}
        self.assert_refused(data, "cost of the empty set must be 0")

    @pytest.mark.parametrize("side, key", [("f", "values"), ("c", "weights")])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_hex_float_out_of_float_range_refused(self, side, key, sign):
        data = json.loads(run_construct("equal_revenue_submod_f", 3))
        data[side][key][1] = f"{sign}0x1p+2000"
        self.assert_refused(data, "out of float range")

    @pytest.mark.parametrize("side, key, text", [("f", "values", "01"), ("c", "weights", "1")])
    def test_a_string_in_place_of_a_list_refused(self, side, key, text):
        # read character by character, the string would be a table of n = 1
        data = json.loads(run_construct("equal_revenue_submod_f", 1))
        data[side][key] = text
        self.assert_refused(data, f"{key} must be a list")

    def test_a_bool_n_refused(self):
        data = json.loads(run_construct("equal_revenue_submod_f", 1))
        data["n"] = True  # True == 1, so every range and length check passes
        self.assert_refused(data, "n must be an int")

    # 53.7 read as 53 bits, "64" as 64, and 1e999 (a float inf) ended in an
    # OverflowError traceback
    @pytest.mark.parametrize("bits", ["53.7", '"64"', "1e999", "true", "null"])
    def test_precision_bits_must_be_a_json_int(self, bits):
        data = json.loads(run_construct("equal_revenue_submod_f", 3))
        data["precision_bits"] = "@"
        text = json.dumps(data).replace('"precision_bits": "@"', f'"precision_bits": {bits}')
        self.assert_refused(text, "precision_bits must be an int")

    def test_precision_bits_beyond_max_refused(self):
        # loaded, 10^11 bits built a ~5.8 GiB int for solve's tolerance
        data = json.loads(run_construct("equal_revenue_submod_f", 3))
        data["precision_bits"] = 10**11
        with pytest.raises(ValueError, match=f"^precision_bits must be <= {MAX_BITS}, got 10"):
            instance_from_dict(data)
        self.assert_refused(data, f"precision_bits must be <= {MAX_BITS}, got {10**11}")

    @staticmethod
    def extended_precision_data() -> dict:
        """The n=3 submodular chain at 192 bits, f as "m p e" strings, and
        the additive cost as its table of "m p e" strings too."""
        data = instance_to_dict(build_equal_revenue_submod_f(3, precision_bits=192))
        values = [number_to_str(mpmath.mpf(m)) for m in range(8)]
        data["c"] = {"kind": "table", "values": values, "declared_class": "additive"}
        return data

    @pytest.mark.parametrize("bad", ["1p", "p3", "1p2p3", "nan", "1p3.5"])
    def test_bad_number_in_an_extended_precision_table(self, bad):
        data = self.extended_precision_data()
        data["f"]["values"][5] = bad
        self.assert_refused(data, "ValueError")

    @settings(max_examples=15, deadline=None)
    @given(man=st.integers(-(1 << 200), 1 << 200).filter(bool), exp=st.integers(-300, 300))
    def test_nonzero_cost_of_the_empty_set_in_an_extended_precision_table(self, man, exp):
        data = self.extended_precision_data()
        data["c"]["values"][0] = f"{man}p{exp}"
        self.assert_refused(data, "cost of the empty set must be 0")

    def test_extended_precision_refusal_exit_status_and_stderr(self, tmp_path):
        data = self.extended_precision_data()
        data["f"]["values"][5] = "1p2p3"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "contractlab.cli", "solve", "--instance", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    MIXED = 'the tables mix "m p e" (mpf) and "p/q" (Fraction) entries'

    def test_mpf_reward_with_fraction_weights_refused(self, tmp_path):
        # the n=3 chain at 128 bits with its c weights as "p/q": solve ended
        # in a TypeError traceback (Fraction / mpf) before this refusal
        data = instance_to_dict(build_equal_revenue_submod_f(3, precision_bits=128))
        data["c"]["weights"] = ["1/2", "1", "2"]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "contractlab.cli", "solve", "--instance", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"contractlab: cannot load instance: ValueError: {self.MIXED}\n"
        self.assert_refused(data, self.MIXED)

    def test_library_instance_mixing_mpf_and_fraction_refused(self):
        # the same tables built in the library: optimal_contract ended in a
        # TypeError traceback (Fraction / mpf) before this refusal
        f = build_equal_revenue_submod_f(3, precision_bits=128).f
        c = SetFunctionOracle(3, weights=[Fraction(1, 2), 1, 2], declared_class="additive")
        with pytest.raises(ValueError) as exc:
            ContractInstance(n=3, f=f, c=c)
        assert str(exc.value) == self.MIXED
        # mpf weights in their place solve
        mpf_c = SetFunctionOracle(3, weights=[mpmath.mpf(0.5), 1, 2], declared_class="additive")
        assert optimal_contract(ContractInstance(n=3, f=f, c=mpf_c)).breakpoint_count > 0

    def test_one_table_mixing_mpf_and_fraction_refused(self):
        data = self.extended_precision_data()
        data["c"]["values"][5] = "5/1"
        self.assert_refused(data, self.MIXED)
        data["c"]["values"][5] = "5"  # an int beside mpfs compares
        for command in (["solve"], ["verify", "structure"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run([command[0], "--instance", json.dumps(data), *command[1:]]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "experiment value-query --n 1",
            "experiment demand-sim --n 1",
            "experiment supply-sim --n 1",
            "experiment value-query --n 3 --trials 0",
            "experiment cc-sweep --n 3",
            "solve --instance instance:equal_revenue_supmod_c:3 --fptas 1.5",
        ],
    )
    def test_out_of_range_parameter(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(_golden_argv(argv.split()))
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"contractlab: {argv.split()[0]}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            "experiment cc-sweep --n 4 --trials 0",
            "experiment cc-sweep --n 4 --trials -1",
            "experiment demand-sim --n 3 --trials -1",
            "experiment supply-sim --n 3 --trials 0",
            "experiment value-query --n 3 --trials -2",
            "experiment protocol-bench --n 4 --variant sup-sup --trials -1",
            "experiment protocol-bench --n 4 --variant sup-sup --trials 0",
        ],
    )
    def test_trials_below_range(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("contractlab: experiment: ValueError: --trials must be >= ")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ("equal_revenue_submod_f --n 3 --precision-bits 0", "precision_bits must be >= 24, got 0"),
            ("equal_revenue_submod_f --n 3 --precision-bits 10", "precision_bits must be >= 24, got 10"),
            ("equal_revenue_submod_f --n 3 --precision-bits 8193",
             "precision_bits must be <= 8192, got 8193"),
            # wider than the JSON format's decimal ints can carry
            ("equal_revenue_submod_f --n 3 --precision-bits 16000",
             "precision_bits must be <= 8192, got 16000"),
            ("rounded --n 2 --grid-bits 0", "grid exponent must be >= 56"),
            ("equal_revenue_supmod_c --n 3 --precision-bits 300",
             "equal_revenue_supmod_c does not take precision_bits"),
            ("rounded --n 2 --precision-bits 300", "rounded does not take precision_bits"),
            ("equal_revenue_submod_f --n 3 --grid-bits 80",
             "equal_revenue_submod_f does not take grid_bits"),
        ],
    )
    def test_construct_refuses_a_flag_it_cannot_honour(self, argv, reason, capsys):
        # a zero is a value, not an absent flag, and a flag the kind does
        # not take is refused, not dropped; nothing reaches stdout
        with pytest.raises(SystemExit) as exc:
            run(["construct", *argv.split()])
        assert exc.value.code == f"contractlab: construct: ValueError: {reason}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, name, flag",
        [
            ("value-query --n 4 --variant sub-sub", "value-query", "variant"),
            ("demand-sim --n 3 --variant sub-sup", "demand-sim", "variant"),
            ("supply-sim --n 3 --variant sup-sup", "supply-sim", "variant"),
            ("value-query --n 4 --exhaustive", "value-query", "exhaustive"),
            ("demand-sim --n 3 --exhaustive", "demand-sim", "exhaustive"),
            ("supply-sim --n 3 --exhaustive", "supply-sim", "exhaustive"),
            ("protocol-bench --n 4 --exhaustive", "protocol-bench", "exhaustive"),
            ("protocol-bench --n 4 --seed 0", "protocol-bench", "seed"),
            ("protocol-bench --n 4 --variant sup-sup --seed 7", "protocol-bench", "seed"),
            ("cc-sweep --n 2 --exhaustive --trials 3", "cc-sweep --exhaustive", "trials"),
            ("cc-sweep --n 2 --exhaustive --trials 100", "cc-sweep --exhaustive", "trials"),
            ("cc-sweep --n 2 --exhaustive --seed 0", "cc-sweep --exhaustive", "seed"),
            ("cc-sweep --n 2 --variant sup-sup --exhaustive --seed 5", "cc-sweep --exhaustive",
             "seed"),
        ],
    )
    def test_experiment_refuses_a_flag_it_does_not_read(self, argv, name, flag, capsys):
        # the flag is refused even at the value the readers default to
        with pytest.raises(SystemExit) as exc:
            run(["experiment", *argv.split()])
        assert exc.value.code == f"contractlab: experiment: ValueError: {name} does not take --{flag}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("eps", ["0.1", "7"])
    def test_solve_csv_refuses_fptas(self, tmp_path, eps, capsys):
        # the CSV rows have no FPTAS column: --fptas is refused, not dropped,
        # in range or not, and no row is written
        path, out = tmp_path / "chain.json", tmp_path / "rows.csv"
        path.write_text(run_construct("equal_revenue_supmod_c", 3))
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--instance", str(path), "--format", "csv", "--fptas", eps,
                 "--out", str(out)])
        assert exc.value.code == "contractlab: solve: ValueError: --format csv does not take --fptas"
        assert capsys.readouterr().out == "" and not out.exists()

    def test_an_absent_trials_or_seed_reads_as_its_default(self, capsys):
        for argv in (["cc-sweep", "--n", "2"], ["cc-sweep", "--n", "2", "--trials", "100",
                                                 "--seed", "0"]):
            assert run(["experiment", *argv]) == 0
            summary = json.loads(capsys.readouterr().out)["summary"]
            assert (summary["seed"], summary["pairs"]) == (0, 100)
        assert run(["experiment", "cc-sweep", "--n", "2", "--exhaustive"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert (summary["seed"], summary["pairs"]) == (0, 16)

    def test_process_exit_status_and_stderr(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = subprocess.run(
            [sys.executable, "-m", "contractlab.cli", "solve", "--instance", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        path = tmp_path / "i.json"
        assert run(["construct", "equal_revenue_supmod_c", "--n", "3", "--out", str(path)]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--instance", str(path), "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(["solve", "--instance", str(path), "--fptas", "0.1"]) == 0
        with_fptas = json.loads(capsys.readouterr().out)
        assert run(["solve", "--instance", str(path)]) == 0
        plain = json.loads(capsys.readouterr().out)
        # no option of one call leaks into the next
        assert "fptas" in with_fptas and "fptas" not in plain
        assert plain == {k: v for k, v in with_fptas.items() if k != "fptas"}


def _golden_argv(argv):
    """argv with each "instance:KIND:N" argument replaced by the JSON text
    `construct KIND --n N` prints."""
    out = []
    for arg in argv:
        if arg.startswith("instance:"):
            _, kind, n = arg.split(":")
            arg = run_construct(kind, int(n))
        out.append(arg)
    return out


# command -> (exit status, SHA-256 of its stdout), recorded on fixed seeds
GOLDEN = {
    "construct equal_revenue_submod_f --n 4": (
        0, "21554abd72374cc9c5d09e4d5209615d6df657fc6fbaa4c61f9fdaae8a07f2e1"),
    "construct equal_revenue_supmod_c --n 3": (
        0, "65259a22927d52eebd51be3c042a09a7f769d9e1ad646f30cea1208cd3e9c47b"),
    "construct rounded --n 3": (
        0, "f07272e4b3edf22bc64cfeeccb976187a37a05f2f1e4a570918abad18ff11ab2"),
    "solve --instance instance:equal_revenue_submod_f:4 --fptas 0.1": (
        0, "9d9ca6efba5680f01df9f48efe4f38aa6b888fc73c58483b44c6b169a4369a03"),
    "solve --instance instance:equal_revenue_supmod_c:3 --format csv": (
        0, "a2265f9e16a4af55fe77f4d1cc22cff0275b5c5c56c1190ec82268865deb972f"),
    "verify --instance instance:equal_revenue_submod_f:4 structure equal-revenue gap-bounds "
    "sparse-demand cc-invariants": (
        0, "3bf40bc17e4ece1ad2503a0cddc75e655b0a830dbd38b99f9f40c9031b40f789"),
    # the sup-sup cc-invariants branch, and gap-bounds refusing the
    # supermodular-cost chain
    "verify --instance instance:equal_revenue_supmod_c:4 structure equal-revenue gap-bounds "
    "sparse-demand cc-invariants": (
        1, "3188503d9d24225724ec38284fb9ca3e03666c548042cff78a0ef93c828b1bb0"),
    # each check's reason for an instance of no equal-revenue kind
    "verify --instance instance:rounded:4 gap-bounds sparse-demand cc-invariants": (
        1, "a95b157848347ef78664b1293cd6f50c450b110c174c83eebac9b5b7acce16bb"),
    "experiment value-query --n 6 --trials 200 --seed 1": (
        0, "639ea1492f177ef81e0084f3174987612cf0d26283e8cf04d8b60a814c63c7fc"),
    "experiment demand-sim --n 4 --trials 5 --seed 2": (
        0, "c756a669be11a8a40ab1c12f00d0959fa1066a91239c9c0a197c8b4c8258f3ac"),
    "experiment supply-sim --n 3 --trials 5 --seed 2": (
        0, "749b6f58203280124ac8e3abfd04b91adb1755dced529a38ed12705dd90882a2"),
    # past the tiny D^eps and breakpoint lists of n <= 4
    "experiment demand-sim --n 6 --trials 3 --seed 2": (
        0, "af465c6d7f84410cb107d31c7aeceb6e15c1c396c879c92a53a6e249af315dcd"),
    "experiment supply-sim --n 5 --trials 3 --seed 2": (
        0, "23af6a96cc0f9f53a7f8836816f94c63531a14a7764d1a8e9acf6baae7814d5a"),
    "experiment cc-sweep --n 4 --variant sub-sub --trials 5 --seed 3": (
        0, "1431374967d2ed2eb02d490943cb2dee8978aa50acae0df3307f5a8e242f94c8"),
    "experiment cc-sweep --n 4 --variant sub-sup --trials 5 --seed 3": (
        0, "00542f3ebc070dd8c44ad02a699af6957d278e6769edbc754be275e60a5c28e9"),
    "experiment cc-sweep --n 4 --variant sup-sup --trials 5 --seed 3": (
        0, "39c0370ac8a8173718907af3347462bc66cb36da3a823ce766ec580d4e2a8d07"),
    "experiment protocol-bench --n 4 --variant sub-sub": (
        0, "aeff14d8507a681ccbf8aaaf075e0e926cc31652fb23659086e201e0cd3268f5"),
    "experiment protocol-bench --n 4 --variant sub-sup": (
        0, "4cbc21f9f49560f76127761b75fed3d64578b9a84a90c3100581b7ff66ec14cb"),
    "experiment protocol-bench --n 4 --variant sup-sup": (
        0, "e3cf242ce44a427909c89a707aa38efa4866e269309a49a5a275314f5f81de98"),
    # extended precision: n = 11 runs at 330 bits, as "m p e" strings
    "construct equal_revenue_submod_f --n 11": (
        0, "8008b5821c3e9e67fb99f540301d00b151c8354443bf52cd33a34a808a036b87"),
    "solve --instance instance:equal_revenue_submod_f:11": (
        0, "f30d04e053a4f9c3b2c2c9bbb43cecf2320c37c600bbc9f8e65ecc3ff7d19aff"),
    "solve --instance instance:equal_revenue_submod_f:11 --format csv": (
        0, "9c9a2735122f53cfff9cd890bfde9fcddf68de2438700f64f1c91c0656c1e405"),
    "solve --instance instance:equal_revenue_submod_f:11 --fptas 0.1": (
        0, "9c0a462515c68c8aadb8114425a65563c0610c0e3f2ac363551c40040f617ed0"),
}


class TestGoldenOutputs:
    """Every command's stdout, byte for byte, as its SHA-256 digest.  A
    change that means to alter an output re-records its digest and says so."""

    @pytest.mark.parametrize("command", list(GOLDEN))
    def test_output_digest(self, command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(_golden_argv(command.split()))
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert (code, digest) == GOLDEN[command]
