"""Command-line entry point; every analysis is a subcommand with
reproducible file outputs.

Exit codes: 0 success, 1 validation failure (a regenerated value disagrees
with its pinned reference, or a verification suite fails), 2 usage error or
bad input (an unreadable or malformed circuit file, an out-of-range number),
reported as one line on stderr.
Each subcommand builds its output once, in every form it offers, and one
writer sends the form ``--format`` selects to stdout or to ``--out``, so a
file receives exactly what stdout would.
Numbers print in scientific notation with 15 decimal digits so table
entries can be compared digit by digit.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import pinned
from .builders import build_full_ec_circuit
from .circuits import parse, serialize
from .depth import block_analysis
from .faults import (
    check_flag_conditions,
    classify_collisions,
    derive_perfect_assumptions,
    ledger_names,
    reconstruct_meta,
    view_table,
)

FMT = "{:.15e}"


def _fmt(v: float) -> str:
    return FMT.format(v)


def _write(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    if not os.path.isabs(out) and os.environ.get("STEANESIM_OUTDIR"):
        out = os.path.join(os.environ["STEANESIM_OUTDIR"], out)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write(text)


def _emit(args, forms: dict, out: str | None = None) -> None:
    """Write the form ``--format`` selects from ``forms`` (``"json"`` maps to
    a payload, any other form to lines) to ``out``, by default ``--out``."""
    form = forms[args.format]
    if args.format == "json":
        import json  # only JSON forms need it: text commands skip its import
        text = json.dumps(form, indent=2, sort_keys=True, allow_nan=False)
    else:
        text = "\n".join(form)
    _write(text, args.out if out is None else out)


def _r(r: int | None) -> str:
    return "inf" if r is None else str(r)


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def _sig_convention_b(sig, view: str, layout) -> str:
    """Reference-style rendering: one syndrome triple plus the terminal
    readout bits of qubits 5-7 (X view, Meas5-Meas7) or of the X-read qubits
    2-4 (Z view, offset-indexed: Meas_j names qubit j+1)."""
    if view == "X":
        syn, wanted, names = sig.agreed_z(), (4, 5, 6), "Meas5,Meas6,Meas7"
    else:
        syn, wanted, names = sig.agreed_x(), (1, 2, 3), "Meas1,Meas2,Meas3"
    if syn is None:
        return "rounds-disagree"
    bits = "".join(str(sig.meas[i]) for i, q in enumerate(layout.terminal) if q in wanted)
    return f"g={''.join(map(str, syn))} {names}={bits}"


def _load_circuit(args):
    if args.circuit:
        for option, value in (("--block", args.block), ("--flags/--no-flags", args.flags)):
            if value is not None:  # None: not given (the default cycle is the flagged data cycle)
                raise ValueError(f"--circuit cannot be combined with {option}: the circuit file fixes the cycle")
        with open(args.circuit, encoding="utf-8") as f:
            return reconstruct_meta(parse(f.read()))
    return build_full_ec_circuit(include_flags=args.flags is not False, block_kind=args.block or "data")


def cmd_propagate(args) -> int:
    circuit = _load_circuit(args)
    table = view_table(circuit, args.types)
    classes = classify_collisions(table, frozenset())
    rows = []
    for cls in classes:
        members = ";".join(loc.display_name() for loc, _ in cls.members)
        residuals = ";".join(sorted({str(res) for _, res in cls.members})) or "I"
        rows.append(
            {
                "signature": str(cls.signature),
                "signature_b": _sig_convention_b(cls.signature, args.types, circuit.layout),
                "locations": members,
                "residual": residuals,
                "verdict": cls.verdict,
            }
        )
    lines = ["signature,convention-b signature,locations,residual,verdict"] + [
        f"\"{r['signature']}\",\"{r['signature_b']}\",\"{r['locations']}\",\"{r['residual']}\",{r['verdict']}"
        for r in rows
    ]
    _emit(args, {"text": lines, "json": rows})
    return 0


def cmd_flags(args) -> int:
    circuit = _load_circuit(args)
    x_ledger, z_ledger = (derive_perfect_assumptions(view_table(circuit, view)) for view in ("X", "Z"))
    reports = check_flag_conditions(circuit, x_ledger, z_ledger)
    payload = [
        {
            "gadget": r.gadget_id,
            "kind": r.kind,
            "cn": list(r.cn_labels),
            "condition1": r.condition1,
            "condition2": r.condition2,
            "condition3": r.condition3,
            "detail": r.detail,
        }
        for r in reports
    ]
    lines = [
        f"gadget {r.gadget_id} ({r.kind}-type {r.cn_labels[0]}/{r.cn_labels[1]}): "
        f"cond1={'ok' if r.condition1 else 'FAIL'} cond2={'ok' if r.condition2 else 'FAIL'} "
        f"cond3={'ok' if r.condition3 else 'FAIL'} -> {'pass' if r.all_pass else 'FAIL'}"
        for r in reports
    ]
    _emit(args, {"text": lines, "json": payload})
    return 0 if all(r.all_pass for r in reports) else 1


def cmd_depth(args) -> int:
    lines, csv_rows = [], ["block,quantity,q1,q2,q3,q4,q5,q6,q7"]
    payload = {}
    for block in ("data", "aux"):
        _, x_ledger, z_ledger, profile, depth = block_analysis(block)
        rows = {
            "r_x": profile.r_x, "r_y": profile.r_y, "r_z": profile.r_z,
            "R": depth.R,
        }
        payload[block] = {k: list(v) for k, v in rows.items()}
        payload[block]["gamma"] = depth.gamma
        payload[block]["perfect_x"] = ledger_names(x_ledger)
        payload[block]["perfect_z"] = ledger_names(z_ledger)
        lines.append(f"{block} block (gamma={depth.gamma})")
        for name, vals in rows.items():
            lines.append(f"  {name:<3} " + " ".join(f"{v:3d}" for v in vals))
            csv_rows.append(f"{block},{name}," + ",".join(map(str, vals)))
    _emit(args, {"text": lines, "csv": csv_rows, "json": payload})
    return 0


# name -> (block, gate class, pinned map); tables 1a/1b scan the transversal
# class and pin (x_star, max_p_th) per k, tables 2a/2b pin max_p_th per (k, r).
TABLES = {
    "1a": ("data", None, pinned.TABLE_1A_DATA),
    "1b": ("aux", None, pinned.TABLE_1B_AUX),
    "2a": ("aux", "t", pinned.TABLE_2A_T_GATE),
    "2b": ("aux", "toffoli3", pinned.TABLE_2B_TOFFOLI_TARGET),
}


def _table(name: str) -> tuple[list[str], list[str]]:
    """A table's CSV lines, and one line per entry that disagrees with its pinned value."""
    from .threshold import generate_table_1, generate_table_2

    block, gate, pinned_map = TABLES[name]
    depth = block_analysis(block)[4]
    if gate is None:
        results = generate_table_1(depth)
        lines = ["k,x,p_th"] + [f"{r.k},{r.x_star},{_fmt(r.max_p_th)}" for r in results]
    else:
        results = generate_table_2(depth, gate)
        lines = ["k,r,x_star,max_p_th"] + [f"{r.k},{_r(r.r)},{r.x_star},{_fmt(r.max_p_th)}" for r in results]
    failures = []
    for r in results:
        if gate is None:  # tables 1a/1b pin x_star too
            (x, p), where = pinned_map[r.k], f"k={r.k}"
            got, want = f"x={r.x_star} p_th={_fmt(r.max_p_th)}", f"x={x} p_th={_fmt(p)}"
        else:
            x, p, where = r.x_star, pinned_map[(r.k, r.r)], f"k={r.k} r={_r(r.r)}"
            got, want = f"max_p_th={_fmt(r.max_p_th)}", f"max_p_th={_fmt(p)}"
        if r.x_star != x or abs(r.max_p_th - p) > 1e-9 * p:
            failures.append(f"table {name} {where}: regenerated {got}, pinned {want}, "
                            f"relative error {abs(r.max_p_th - p) / p:.3e}")
    return lines, failures


def cmd_tables(args) -> int:
    if args.out is not None and args.out_dir:
        raise ValueError("--out and --out-dir cannot be combined")
    tables = {name: _table(name) for name in ([args.table] if args.table else TABLES)}
    if args.out_dir:
        for name, (lines, _) in tables.items():
            _write("\n".join(lines), os.path.join(args.out_dir, f"table{name}.csv"))
    else:
        _emit(args, {"text": [line for lines, _ in tables.values() for line in lines]})
    failures = [line for _, lines in tables.values() for line in lines] if args.check else []
    for line in failures:
        sys.stderr.write(line + "\n")
    return 1 if failures else 0


def cmd_threshold(args) -> int:
    from .threshold import DEFAULT_X_MAX, curve, optimize_x

    if args.curves and args.out is not None:
        raise ValueError("--curves and --out cannot be combined: --curves names the output file")
    if args.r is not None and args.gate == "transversal":
        raise ValueError("--r needs a measured --gate (t, toffoli1, toffoli2, toffoli3); the transversal class ignores it")
    block_depth = block_analysis(args.block)[4]
    x_max = DEFAULT_X_MAX if args.x_max is None else args.x_max
    if args.curves:
        ks = list(range(1, 7)) if args.k is None else [args.k]
        points = [pt for k in ks for pt in curve(block_depth, k, x_max, args.r, args.gate)]
        _emit(args, {"text": ["k,x,p_th"] + [f"{k},{x},{_fmt(p)}" for k, x, p in points],
                     "json": [{"k": k, "x": x, "p_th": p} for k, x, p in points]}, args.curves)
        return 0
    ks = list(range(1, 11)) if args.k is None else [args.k]
    rows = [optimize_x(block_depth, k, args.r, args.gate, x_max) for k in ks]
    _emit(args, {
        "text": ["k,r,gate,x_star,c,max_p_th"] + [
            f"{r.k},{_r(r.r)},{r.gate_class},{r.x_star},{r.c_at_x_star!r},{_fmt(r.max_p_th)}" for r in rows
        ],
        "json": [
            {"k": r.k, "r": r.r, "gate": r.gate_class, "x_star": r.x_star, "c": r.c_at_x_star, "max_p_th": r.max_p_th}
            for r in rows
        ],
    })
    return 0


def cmd_resources(args) -> int:
    from .resources import LEVEL_GROWTH_FACTOR, check_permitted_depth, cnot_count, derived_cnot_counts, estimate_runtime

    if args.gate is None and (args.count is not None or args.cnot_time is not None):
        raise ValueError("--count and --cnot-time need --gate")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: ints of any length print
    # every count is at least 7^(k-1): the log test turns a huge k away before any big-integer work
    if digits and ((args.k - 1) * math.log10(LEVEL_GROWTH_FACTOR) > digits + 1
                   or max(cnot_count(g, args.k) for g in pinned.CNOTS_PER_PERIOD) >= 10 ** digits):
        raise ValueError(f"--k {args.k} gives CNOT counts of more than {digits} digits, "
                         "the interpreter's limit for printing an int")
    derived = derived_cnot_counts()
    consistent = all(derived[g] == pinned.CNOTS_PER_PERIOD[g] for g in derived)
    at_k = {g: cnot_count(g, args.k) for g in pinned.CNOTS_PER_PERIOD}
    payload = {"per_period_k1": dict(pinned.CNOTS_PER_PERIOD), "derived_from_circuits": derived,
               "k": args.k, "cnots_at_k": at_k, "consistent": consistent}
    lines = [f"CNOTs per period (k=1): {pinned.CNOTS_PER_PERIOD}",
             f"derived from circuits:  {derived}  consistent={consistent}", f"at k={args.k}: {at_k}"]
    if args.gate:
        count = 1 if args.count is None else args.count
        cnot_time = pinned.CNOT_TIME_SECONDS if args.cnot_time is None else args.cnot_time
        est = estimate_runtime({args.gate: count}, args.k, cnot_time)
        payload["runtime"] = {
            "gate": args.gate, "count": count,
            "total_cnots": est.total_cnots, "seconds": est.seconds,
        }
        lines.append(f"runtime: {count} x {args.gate} -> {est.total_cnots} CNOTs, {_fmt(est.seconds)} s")
    depth = block_analysis(args.block)[4]
    chk = check_permitted_depth(depth, args.k, args.x, args.depth_limit)
    payload["permitted_depth"] = {
        "per_qubit_depth": chk.per_qubit_depth, "limit": chk.limit,
        "passed": chk.passed, "max_admissible_k": chk.max_admissible_k,
    }
    lines.append(f"permitted depth: {chk.per_qubit_depth} <= {chk.limit}: "
                 f"{'pass' if chk.passed else 'FAIL'} (max k = {chk.max_admissible_k})")
    _emit(args, {"text": lines, "json": payload})
    return 0 if consistent else 1


def cmd_verify(args) -> int:
    for option, value in (("--faults", args.faults), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{option} must be >= 0, got {value}")
    # The oracle's arrays hold at most 2 x 2^14 amplitudes and its only BLAS calls are 2x2 products
    # (apply_1q): one thread suffices, and starting OpenBLAS's pool cost ~60 ms of every fresh verify.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import verification

    results = verification.run_all(n_oracle_faults=args.faults, seed=args.seed)
    _emit(args, {"text": [f"{'PASS' if passed else 'FAIL'}  {name}  {detail}" for name, passed, detail in results]})
    return 0 if all(passed for _, passed, _ in results) else 1


def cmd_circuit(args) -> int:
    circuit = build_full_ec_circuit(include_flags=args.flags, block_kind=args.block)
    _emit(args, {"text": [serialize(circuit)]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="steanesim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *formats):
        """``--out``, and ``--format`` over the formats the subcommand writes."""
        if formats:
            sp.add_argument("--format", choices=("text", *formats), default="text")
        else:
            sp.set_defaults(format="text")
        sp.add_argument("--out", default=None, help="output path (default stdout; "
                        "relative paths resolve under $STEANESIM_OUTDIR)")

    sp = sub.add_parser("propagate", help="emit the single-fault decoding table")
    sp.add_argument("--types", choices=("X", "Y", "Z"), default="X")
    sp.add_argument("--flags", action=argparse.BooleanOptionalAction, default=None)
    sp.add_argument("--block", choices=("data", "aux"), default=None)
    sp.add_argument("--circuit", default=None, help="analyze a serialized circuit file instead")
    common(sp, "json")
    sp.set_defaults(func=cmd_propagate)

    sp = sub.add_parser("flags", help="audit the flag-gadget usage conditions")
    sp.add_argument("--block", choices=("data", "aux"), default=None)
    sp.add_argument("--circuit", default=None, help="analyze a serialized circuit file instead")
    common(sp, "json")
    sp.set_defaults(func=cmd_flags, flags=None)  # the audit builds the flagged cycle

    sp = sub.add_parser("depth", help="print depth profiles and R coefficients")
    common(sp, "csv", "json")
    sp.set_defaults(func=cmd_depth)

    sp = sub.add_parser("threshold", help="maximum-threshold search")
    sp.add_argument("--block", choices=("data", "aux"), default="data")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--gate", choices=("transversal", "t", "toffoli1", "toffoli2", "toffoli3"),
                    default="transversal")
    sp.add_argument("--x-max", type=int, default=None)  # None: threshold.DEFAULT_X_MAX
    sp.add_argument("--curves", default=None,
                    help="write (k,x,p_th) rows to this file (CSV, or JSON under --format json)")
    common(sp, "json")
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("resources", help="CNOT counts, runtime and depth limits")
    sp.add_argument("--gate", choices=("transversal", "t", "toffoli"), default=None)
    sp.add_argument("--count", type=int, default=None, help="gates of --gate to time (default 1)")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--x", type=int, default=1)
    sp.add_argument("--block", choices=("data", "aux"), default="data")
    sp.add_argument("--cnot-time", type=float, default=None,
                    help=f"seconds per CNOT for --gate (default {pinned.CNOT_TIME_SECONDS})")
    sp.add_argument("--depth-limit", type=int, default=pinned.PERMITTED_DEPTH)
    common(sp, "json")
    sp.set_defaults(func=cmd_resources)

    sp = sub.add_parser("verify", help="run the statevector and oracle suites")
    sp.add_argument("--faults", type=int, default=200)
    sp.add_argument("--seed", type=int, default=20240817)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("tables", help="regenerate the threshold tables")
    sp.add_argument("--table", choices=("1a", "1b", "2a", "2b"), default=None)
    sp.add_argument("--out-dir", default=None)
    sp.add_argument("--check", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("circuit", help="serialize the encode/decode circuit")
    sp.add_argument("--flags", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--block", choices=("data", "aux"), default="data")
    common(sp)
    sp.set_defaults(func=cmd_circuit)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # bad outside input: a file, a circuit, a number
        sys.stderr.write(f"steanesim {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
