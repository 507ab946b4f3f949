"""Command-line interface: outputs, determinism, exit codes."""
from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from steanesim import faults
from steanesim.builders import build_full_ec_circuit
from steanesim.circuits import parse, serialize
from steanesim.cli import main
from steanesim.depth import block_analysis
from steanesim.faults import check_flag_conditions, derive_perfect_assumptions, view_table
from steanesim.resources import cnot_count


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    # Every subcommand runs as a fresh process that pays this import; only
    # verify loads numpy, no record type generates code or loads typing at
    # import, only a JSON form loads json, and only their commands load the
    # threshold and resources layers. A library caller of the analysis
    # layers loads neither of those, nor the pinned values. Under -S no
    # site hook (a .pth file) loads typing first; PYTHONPATH still applies.
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    layers = {"typing", "steanesim.threshold", "steanesim.resources"}
    probes = {
        "import steanesim.cli": layers | {"dataclasses", "inspect", "json", "numpy"},
        "from steanesim import circuits, depth, faults": layers | {"steanesim.pinned"},
    }
    for statement, unwanted in probes.items():
        probe = f"{statement}; import sys; print(sorted(set({sorted(unwanted)!r}) & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": path},
                              stdout=subprocess.PIPE, text=True, check=True)
        assert (statement, proc.stdout.strip()) == (statement, "[]")


def _cli_process(argv: list[str], blas_threads: str | None) -> subprocess.Popen:
    """A fresh interpreter running ``argv`` with ``OPENBLAS_NUM_THREADS``
    unset (None) or set to ``blas_threads``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_verify_output_does_not_depend_on_the_blas_thread_setting():
    golden = (ROOT / "perfbench" / "goldens" / "verify.txt").read_bytes()
    procs = {threads: _cli_process(["-m", "steanesim.cli", "verify"], threads) for threads in (None, "1", "2")}
    outputs = {threads: proc.communicate(timeout=60) for threads, proc in procs.items()}
    assert {threads: (proc.returncode, outputs[threads][0]) for threads, proc in procs.items()} == {
        threads: (0, golden) for threads in procs}


def test_verify_loads_numpy_with_one_blas_thread_unless_one_is_set():
    # Only verify sets the variable, only if numpy is not loaded yet, and an exported value wins.
    probe = (
        "import contextlib, io, json, os, sys\n"
        "from steanesim.cli import main\n"
        "seen = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv.split())\n"
        "    seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else None\n"
        "print(json.dumps([seen, tasks]))\n"
    )
    unset = _cli_process(["-c", probe, "depth", "verify --faults 0"], None)
    preset = _cli_process(["-c", probe, "verify --faults 0"], "3")
    (seen, tasks), (seen_preset, _) = (json.loads(p.communicate(timeout=60)[0]) for p in (unset, preset))
    assert seen == [None, "1"]
    assert seen_preset == ["3"]
    if sys.platform.startswith("linux"):
        assert tasks == 1


def test_tables_1a_first_row(capsys):
    code, out = run(capsys, "tables", "--table", "1a")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,x,p_th"
    assert lines[1] == "1,3,2.545392838961480e-04"
    assert len(lines) == 11


def test_tables_check_passes(capsys):
    code, _ = run(capsys, "tables", "--check")
    assert code == 0


def test_tables_check_names_each_failing_entry(capsys, monkeypatch):
    from steanesim import pinned

    clean = run(capsys, "tables", "--check")
    monkeypatch.setitem(pinned.TABLE_2A_T_GATE, (1, 10), 1.5e-4)
    monkeypatch.setitem(pinned.TABLE_1B_AUX, 3, (2, pinned.TABLE_1B_AUX[3][1]))
    code = main(["tables", "--check"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, clean[1])
    assert captured.err.splitlines() == [
        "table 1b k=3: regenerated x=1 p_th=3.253090435914119e-04, pinned x=2 p_th=3.253090435914119e-04, "
        "relative error 1.666e-16",
        "table 2a k=1 r=10: regenerated max_p_th=1.460514977581095e-04, pinned max_p_th=1.500000000000000e-04, "
        "relative error 2.632e-02",
    ]


def test_threshold_k3_row(capsys):
    code, out = run(capsys, "threshold", "--block", "data", "--k", "3")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "3" and row[3] == "1"
    assert row[5] == "1.541452488659314e-04"


def test_threshold_json(capsys):
    code, out = run(capsys, "threshold", "--block", "aux", "--k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["x_star"] == 2


@pytest.mark.parametrize("form", [(), ("--format", "json"), ("--curves", "-")], ids=["text", "json", "curves"])
def test_threshold_without_x_max_scans_to_200(capsys, form):
    code, out = run(capsys, "threshold", *form)
    assert code == 0 and out
    assert run(capsys, "threshold", *form, "--x-max", "200") == (code, out)


def test_propagate_contains_reference_row(capsys):
    code, out = run(capsys, "propagate", "--types", "X", "--no-flags")
    assert code == 0
    rows = [r for r in out.splitlines() if "X25^C" in r and "Meas5,Meas6,Meas7=001" in r]
    assert len(rows) == 1
    assert "X7" in rows[0] and "g=000" in rows[0]
    # the first-round-copy fault surfaces separately as round disagreement
    assert any("X25^C" in r and "rounds-disagree" in r for r in out.splitlines())


def test_propagate_json_round_trips(capsys):
    code, out = run(capsys, "propagate", "--types", "Z", "--no-flags", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert any("Z9^T" in row["locations"] for row in payload)


def test_flags_report(capsys):
    code, out = run(capsys, "flags")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all("-> pass" in line for line in lines)


def test_depth_output(capsys):
    code, out = run(capsys, "depth", "--format", "csv")
    assert code == 0
    assert "data,r_x,9,11,11,12,14,12,12" in out
    assert "aux,R,6,8,8,8,7,6,6" in out


def test_resources_text(capsys):
    code, out = run(capsys, "resources", "--gate", "t", "--count", "1")
    assert code == 0
    assert "'transversal': 52" in out and "'t': 175" in out and "'toffoli': 436" in out
    assert "4.987500000000000e-02" in out


@pytest.fixture
def int_max_str_digits():
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_resources_prints_every_count_the_interpreter_can_print(capsys, int_max_str_digits):
    int_max_str_digits(4300)  # Python's default: the Toffoli count 436 * 7^(k-1) has 4300 digits at k = 5086
    toffoli = str(cnot_count("toffoli", 5086))
    for fmt in ("text", "json"):
        code, out = run(capsys, "resources", "--k", "5086", "--format", fmt)
        assert code == 0 and toffoli in out
        assert main(["resources", "--k", "5087", "--format", fmt]) == 2
        assert "--k 5087 gives CNOT counts of more than 4300 digits" in capsys.readouterr().err
    int_max_str_digits(0)  # no limit: every k prints
    code, out = run(capsys, "resources", "--k", "6000")
    assert code == 0 and str(cnot_count("toffoli", 6000)) in out


def test_circuit_serialization_cli(capsys):
    code, out = run(capsys, "circuit", "--no-flags")
    assert code == 0
    assert "C36 CNOT 1 6" in out


def test_outputs_are_byte_identical_across_runs(capsys):
    first = run(capsys, "tables", "--table", "2a")
    second = run(capsys, "tables", "--table", "2a")
    assert first == second
    third = run(capsys, "propagate", "--types", "X", "--no-flags")
    fourth = run(capsys, "propagate", "--types", "X", "--no-flags")
    assert third == fourth


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--gate", "nonsense"])
    assert exc.value.code == 2


def test_file_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STEANESIM_OUTDIR", str(tmp_path))
    code, _ = run(capsys, "tables", "--table", "1b", "--out", "t1b.csv")
    assert code == 0
    text = (tmp_path / "t1b.csv").read_text()
    assert text.splitlines()[1] == "1,2,4.235493434985176e-04"


def test_verify_stdout_matches_the_benchmark_golden(capsys, monkeypatch):
    # verify's golden, and those of the other eight commands the benchmark replays.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    assert "verify" in dict(workloads.REPRODUCE_COMMANDS)
    differ = []
    for key, argv in workloads.REPRODUCE_COMMANDS:
        code, out = run(capsys, *argv)
        if code != 0 or out.encode("utf-8") != (ROOT / "perfbench" / "goldens" / f"{key}.txt").read_bytes():
            differ.append(key)
    assert differ == []


@pytest.mark.parametrize("argv", [
    ("propagate", "--types", "Z"),
    ("propagate", "--types", "Y", "--block", "aux", "--format", "json"),
    ("flags",),
    ("flags", "--block", "aux", "--format", "json"),
    ("depth",),
    ("depth", "--format", "csv"),
    ("depth", "--format", "json"),
    ("threshold", "--k", "2"),
    ("threshold", "--block", "aux", "--gate", "t", "--format", "json"),
    ("resources", "--gate", "toffoli", "--count", "1000000"),
    ("resources", "--gate", "t", "--k", "3", "--format", "json"),
    ("verify", "--faults", "10"),
    ("tables",),
    ("tables", "--table", "2b", "--check"),
    ("circuit", "--block", "aux"),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_out_file_receives_exactly_stdout(tmp_path, capsys, argv):
    code, out = run(capsys, *argv)
    path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(path)) == (code, "")
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_curves_file_receives_exactly_what_curves_dash_prints(tmp_path, capsys, fmt):
    argv = ["threshold", "--k", "2", "--x-max", "5", "--format", fmt]
    code, out = run(capsys, *argv, "--curves", "-")
    path = tmp_path / "curves"
    assert run(capsys, *argv, "--curves", str(path)) == (code, "")
    assert code == 0 and path.read_text(encoding="utf-8") == out


def test_verify_subcommand_fast(capsys):
    code, out = run(capsys, "verify", "--faults", "10")
    assert code == 0
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_propagate_accepts_serialized_circuit(tmp_path, capsys):
    code, out = run(capsys, "circuit", "--block", "data", "--no-flags")
    assert code == 0
    path = tmp_path / "ec.txt"
    path.write_text(out)
    code, from_file = run(capsys, "propagate", "--types", "X", "--circuit", str(path))
    assert code == 0
    code, built = run(capsys, "propagate", "--types", "X", "--no-flags")
    assert from_file == built


def test_unused_wires_in_a_file_cost_nothing(tmp_path, capsys):
    # A header that declares far more wires than the gates use changes
    # neither the table nor the memory the fault map takes.
    _, text = run(capsys, "circuit")
    assert "# qubits 51\n" in text
    tables, peaks = [], []
    for n in (51, 20000):
        body = text.replace("# qubits 51\n", f"# qubits {n}\n")
        path = tmp_path / f"ec{n}.txt"
        path.write_text(body)
        tables.append(run(capsys, "propagate", "--circuit", str(path)))
        circuit = faults.reconstruct_meta(parse(body))
        faults._analysis.cache_clear()
        tracemalloc.start()
        try:
            faults.fault_map(circuit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert tables[0][0] == 0 and tables[0] == tables[1]
    assert peaks[1] < 2 * peaks[0]  # a sweep over every declared wire peaks near 300x


@pytest.mark.parametrize(
    "dropped,named",
    [("CN2 ", "CN2"), ("M8:X ", "M8:X"), ("H4 ", "H4"), ("M5:Z ", "M5:Z")],
    ids=["CN2", "M8:X", "H4", "M5:Z"],
)
def test_malformed_circuit_file_exits_2(tmp_path, capsys, dropped, named):
    _, text = run(capsys, "circuit")
    path = tmp_path / "ec.txt"
    path.write_text("".join(line for line in text.splitlines(keepends=True) if not line.startswith(dropped)))
    for command in ("flags", "propagate"):
        assert main([command, "--circuit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err


def test_gadget_off_the_data_wires_exits_2(tmp_path, capsys):
    # CN1 moved to couple flag qubit 36 to non-data wire 9.
    _, text = run(capsys, "circuit")
    assert "CN1 CNOT 2 36\n" in text
    path = tmp_path / "ec.txt"
    path.write_text(text.replace("CN1 CNOT 2 36\n", "CN1 CNOT 36 9\n"))
    for command in ("flags", "propagate"):
        assert main([command, "--circuit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "flag gadget 1" in err


def test_flags_on_a_file_uses_its_own_ledgers(tmp_path, capsys):
    # This override's own X ledger differs from the default build's by X4^C;
    # under the default ledgers gadget 3 would fail condition 2.
    circuit = build_full_ec_circuit(gadget_overrides={1: ("Z", 5, ("CN1", "CN2"), ("C4", "C16.2"))})
    x_ledger = derive_perfect_assumptions(view_table(circuit, "X"))
    z_ledger = derive_perfect_assumptions(view_table(circuit, "Z"))
    assert x_ledger != block_analysis("data")[1]
    expected = [
        {"gadget": r.gadget_id, "condition1": r.condition1, "condition2": r.condition2, "condition3": r.condition3}
        for r in check_flag_conditions(circuit, x_ledger, z_ledger)
    ]
    path = tmp_path / "ec.txt"
    path.write_text(serialize(circuit))
    code, out = run(capsys, "flags", "--circuit", str(path), "--format", "json")
    got = [{k: r[k] for k in ("gadget", "condition1", "condition2", "condition3")} for r in json.loads(out)]
    assert got == expected
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("propagate", "--circuit", "no-such-file.txt"),
    ("resources", "--k", "0"),
    ("threshold", "--k", "0"),
    ("threshold", "--k", "0", "--curves", "-"),
    ("threshold", "--gate", "t", "--k", "2", "--r", "-5"),
    ("threshold", "--gate", "t", "--k", "2", "--r", "0", "--curves", "-"),
    ("verify", "--faults", "-3"),
    ("verify", "--seed", "-1"),
    ("resources", "--x", "0"),
    ("resources", "--x", "-5"),
    ("resources", "--gate", "t", "--cnot-time", "-1"),
    ("resources", "--gate", "t", "--cnot-time", "0"),
    ("resources", "--gate", "t", "--cnot-time", "inf"),
    ("resources", "--gate", "t", "--count", "1" + "0" * 400),
    ("threshold", "--k", "1024"),
    ("threshold", "--curves", "-", "--k", "1024"),
    ("resources", "--gate", "t", "--k", "400"),
    ("resources", "--k", "5087"),
    ("resources", "--k", "6000", "--format", "json"),
    ("tables", "--out", "a.csv", "--out-dir", "d"),
    ("threshold", "--curves", "c.csv", "--out", "t.csv"),
    ("resources", "--cnot-time", "inf"),
    ("resources", "--count", "5", "--format", "json"),
    ("propagate", "--circuit", "aux.txt", "--block", "data", "--no-flags"),
    ("propagate", "--circuit", "aux.txt", "--flags"),
    ("flags", "--circuit", "aux.txt", "--block", "aux"),
    ("threshold", "--k", "2", "--r", "10"),
    ("threshold", "--k", "2", "--r", "10", "--curves", "-"),
    ("resources", "--gate", "t", "--count", "10", "--cnot-time", "1e308"),
    ("resources", "--gate", "t", "--count", "10", "--cnot-time", "1e308", "--format", "json"),
], ids=["missing-file", "resources-k0", "threshold-k0", "curves-k0", "threshold-r-negative", "curves-r0",
        "verify-faults-negative", "verify-seed-negative", "resources-x0", "resources-x-negative",
        "resources-cnot-time-negative", "resources-cnot-time-zero", "resources-cnot-time-inf",
        "resources-runtime-count-overflow", "threshold-k-overflow", "curves-k-overflow",
        "resources-runtime-k-overflow", "resources-k-unprintable", "resources-k-unprintable-json",
        "tables-out-and-out-dir", "curves-and-out", "resources-cnot-time-without-gate",
        "resources-count-without-gate", "propagate-circuit-and-block", "propagate-circuit-and-flags",
        "flags-circuit-and-block", "threshold-r-transversal", "curves-r-transversal",
        "resources-runtime-seconds-overflow", "resources-runtime-seconds-overflow-json"])
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # nothing written, not even the files an option names
    if argv[0] == "verify":
        assert f"{argv[1]} must be >= 0" in captured.err
    if argv[-2:] in (("--k", "1024"), ("--k", "400")):  # too large for a float: the message names k
        assert re.search(rf"\bk\b.*{argv[-1]}", captured.err)
    if "--gate" not in argv and argv[0] == "resources" and argv[1] in ("--count", "--cnot-time"):
        assert "--count and --cnot-time need --gate" in captured.err
    elif "--count" in argv:  # ... and for a runtime, the gate counts and the CNOT time too
        assert f"gate counts {{'t': {argv[argv.index('--count') + 1]}}} at k=1 with cnot_time" in captured.err
    elif argv[-2] == "--cnot-time":
        assert "cnot_time must be positive and finite" in captured.err
    if argv[0] == "threshold" and "--gate" not in argv and "--r" in argv:
        assert "--r needs a measured --gate" in captured.err
    if "--out" in argv:  # an option that would be ignored is named
        assert "cannot be combined" in captured.err
    if "--circuit" in argv[:-2]:  # the file fixes the block and the flags
        named = "--block" if "--block" in argv else "--flags/--no-flags"
        assert f"--circuit cannot be combined with {named}" in captured.err
    if argv[:2] == ("resources", "--k") and int(argv[2]) > 5086:  # counts past the default 4300 printable digits
        assert f"--k {argv[2]} gives CNOT counts of more than 4300 digits" in captured.err


@pytest.mark.parametrize("argv", [
    ("tables", "--format", "json"),
    ("verify", "--format", "text"),
    ("circuit", "--format", "json"),
    ("flags", "--format", "csv"),
    ("propagate", "--format", "csv"),
    ("threshold", "--format", "csv"),
    ("resources", "--format", "csv"),
    ("depth", "--format", "yaml"),
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_format_is_limited_to_what_the_subcommand_writes(capsys, argv):
    # tables/verify/circuit write one fixed form; depth alone writes csv.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_curves_rejects_bad_scan_arguments(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["threshold", "--curves", "-", "--x-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "steanesim threshold: error: x_max must be >= 1\n"


def test_curves_write_json_under_format_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["threshold", "--curves", "c", "--k", "1", "--x-max", "3"]
    assert main(argv) == 0
    csv_rows = (tmp_path / "c").read_text().splitlines()
    assert main(argv + ["--format", "json"]) == 0
    points = json.loads((tmp_path / "c").read_text())
    assert csv_rows[0] == "k,x,p_th"
    assert [f"{p['k']},{p['x']},{p['p_th']:.15e}" for p in points] == csv_rows[1:]
    assert capsys.readouterr().out == ""


def test_json_forms_reject_nan_and_infinity():
    # Python's json would print Infinity or NaN, which a strict JSON parser rejects.
    from argparse import Namespace

    from steanesim.cli import _emit

    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="JSON compliant"):
            _emit(Namespace(format="json", out=None), {"json": {"seconds": value}})
