"""JSON (de)serialization of instances and experiment outputs.

Numbers are serialized losslessly: floats as C99 hex, multiprecision reals
as mantissa*2^exponent ("m p e", odd m), rationals as p/q.  An instance file
always carries its full f and c tables (or additive weights); build_named
maps the CLI's construction names to the constructors in the constructions
module.  A table whose every entry is an "m p e" string is loaded as ints
over one power of two and handed to its oracle in that form (a
reals.MpfTable), and an MpfTable is written from its ints, so no mpf is
built for either.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath

from .core import TIE_BREAK_RULE, ContractInstance, SetFunctionOracle
from .reals import MpfTable, RealContext, dyadic_ints, mpf_exact

# each named construction and the parameters it takes besides n
NAMED_CONSTRUCTIONS = {
    "equal_revenue_submod_f": ("precision_bits",),
    "equal_revenue_supmod_c": (),
    "rounded": ("grid_bits",),
}


def number_to_str(x) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a serializable number")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_
        return f"{-man if sign else man}p{exp}"
    raise TypeError(f"cannot serialize number of type {type(x).__name__}")


def number_from_str(s: str):
    if not isinstance(s, str):
        raise TypeError(f"numbers are written as strings, got {s!r}")
    s = s.strip()
    if s.startswith(("0x", "-0x")):
        return float.fromhex(s)
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    if "p" in s:
        man, exp = map(int, s.split("p"))
        return mpf_exact(man, exp)  # exact, rounded at no precision
    return int(s)


def _mpf_strings(tab: MpfTable) -> list[str]:
    """number_to_str of each entry of tab, from its ints: odd mantissa p
    exponent, and 0p0 for zero."""
    k = tab.scale.bit_length() - 1
    out = []
    for v in tab.ints:
        if not v:
            out.append("0p0")
            continue
        zeros = (v & -v).bit_length() - 1
        out.append(f"{v >> zeros}p{zeros - k}")
    return out


def _mpf_scaled(values):
    """(ints, 2^k, False), SetFunctionOracle's scaled form, of a table whose
    every entry is an "m p e" string, read as number_from_str reads it, the
    ints on one power of two (reals.dyadic_ints); None when some entry does
    not parse so, which leaves the table to number_from_str, entry by
    entry, to parse or refuse."""
    mans, exps = [], []
    try:
        for s in values:
            man, exp = map(int, s.split("p"))
            mans.append(man)
            exps.append(exp)
    except (AttributeError, ValueError):
        return None
    ints, k = dyadic_ints(mans, exps)
    return ints, 1 << k, False


def _oracle_to_dict(oracle: SetFunctionOracle) -> dict:
    d = {"declared_class": oracle.declared_class, "name": oracle.name}
    if oracle.weights is not None:
        d["kind"] = "additive"
        d["weights"] = [number_to_str(w) for w in oracle.weights]
    else:
        tab = oracle.value_table()
        d["kind"] = "table"
        if isinstance(tab, MpfTable) and not tab.rational:
            d["values"] = _mpf_strings(tab)
        else:
            d["values"] = [number_to_str(v) for v in tab]
    return d


def _oracle_from_dict(n: int, d: dict) -> SetFunctionOracle:
    kind = d["kind"]
    if kind == "additive":
        weights = [number_from_str(w) for w in d["weights"]]
        if any(w < 0 for w in weights):
            raise ValueError("an additive oracle with a negative weight is not monotone")
        return SetFunctionOracle(
            n,
            weights=weights,
            declared_class=d.get("declared_class", "additive"),
            name=d.get("name", ""),
        )
    if kind == "table":
        values = d["values"]
        scaled = _mpf_scaled(values)
        table = [number_from_str(v) for v in values] if scaled is None else None
        return SetFunctionOracle(
            n,
            table=table,
            scaled=scaled,
            declared_class=d.get("declared_class", "general-monotone"),
            name=d.get("name", ""),
        )
    raise ValueError(f"unknown oracle kind {kind!r}")


_META_SCALARS = ("kind", "base_kind", "k", "epsilon", "direction", "grid_bits")


def instance_to_dict(inst: ContractInstance) -> dict:
    d = {
        "n": inst.n,
        "f": _oracle_to_dict(inst.f),
        "c": _oracle_to_dict(inst.c),
        "precision_bits": inst.precision_bits,
        "tie_break": TIE_BREAK_RULE,
        "name": inst.name,
        "meta": {},
    }
    for key in _META_SCALARS:
        if key in inst.meta:
            v = inst.meta[key]
            d["meta"][key] = v if isinstance(v, (str, int)) else number_to_str(v)
    return d


def instance_from_dict(d: dict) -> ContractInstance:
    """The instance a dict of instance_to_dict's form describes.  Refuses,
    with ValueError, an additive oracle with a negative weight and a cost
    with c(empty set) != 0; f(empty set) may be anything (the submodular
    equal-revenue chain starts at 1)."""
    n = d["n"]
    if d.get("tie_break", TIE_BREAK_RULE) != TIE_BREAK_RULE:
        raise ValueError(f"unsupported tie_break rule {d['tie_break']!r}")
    ctx = RealContext(bits=d.get("precision_bits", 53))
    inst = ContractInstance(
        n=n,
        f=_oracle_from_dict(n, d["f"]),
        c=_oracle_from_dict(n, d["c"]),
        ctx=ctx,
        name=d.get("name", ""),
    )
    if inst.c.table[0] != 0:
        raise ValueError(f"the cost of the empty set must be 0, not {inst.c.table[0]}")
    meta = d.get("meta", {})
    for key in _META_SCALARS:
        if key in meta:
            v = meta[key]
            inst.meta[key] = number_from_str(v) if key == "epsilon" else v
    return inst


def build_named(name: str, params: dict) -> ContractInstance:
    """The named construction at params["n"] and the other parameters it
    takes; a parameter it does not take raises ValueError."""
    from . import constructions

    if name not in NAMED_CONSTRUCTIONS:
        raise ValueError(f"unknown named construction {name!r}")
    extra = sorted(set(params) - {"n", *NAMED_CONSTRUCTIONS[name]})
    if extra:
        raise ValueError(f"{name} does not take {', '.join(extra)}")
    if name == "equal_revenue_submod_f":
        return constructions.build_equal_revenue_submod_f(
            params["n"], precision_bits=params.get("precision_bits")
        )
    if name == "equal_revenue_supmod_c":
        return constructions.build_equal_revenue_supmod_c(params["n"])
    return constructions.build_rounded(params["n"], grid_bits=params.get("grid_bits")).instance


def save_instance(inst: ContractInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(source: str) -> ContractInstance:
    """Accepts a JSON string or a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        with open(source) as fh:
            text = fh.read()
    return instance_from_dict(json.loads(text))


def dump_json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def dump_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
