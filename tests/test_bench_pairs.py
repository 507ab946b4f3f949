"""The pair benchmark's verdict: each metric's median change against its bound."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
PARENT = {"setup_s": 0.03, "ops_per_s": 7.4, "op_p50_ms": 110.0, "op_p90_ms": 290.0, "peak_rss_mb": 39.5}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(scale: dict[str, float], ops: tuple[int, int] = (260, 270)) -> list[dict]:
    """Ten pairs around PARENT; the change's values are scaled per metric.
    Each run attempts about ``ops`` ops (parent, change), two more in odd pairs."""
    out = []
    for i in range(10):
        jitter = 1 + (i - 4.5) / 1000
        parent = {name: v * jitter for name, v in PARENT.items()}
        change = {name: v * scale.get(name, 1.0) for name, v in parent.items()}
        parent["attempted"], change["attempted"] = (n + 2 * (i % 2) for n in ops)
        out.append({"parent": parent, "change": change})
    return out


def test_changes_within_their_bounds_pass():
    bench_pairs = load_bench_pairs()
    # 5% slower at the median, 2% more memory, and 30% more throughput (a gain).
    summary = bench_pairs.summarize(pairs({"op_p50_ms": 1.05, "peak_rss_mb": 1.02, "ops_per_s": 1.3}), METRICS)
    assert set(summary) == set(PARENT)
    assert abs(summary["op_p50_ms"]["relative_change"] - 0.05) < 1e-12
    assert abs(summary["ops_per_s"]["relative_change"] - 0.3) < 1e-12
    assert all(s["within_bound"] for s in summary.values())
    assert all(s["attempted"] == {"parent": 261, "change": 271} for s in summary.values())
    assert bench_pairs.outside_bounds(summary) == []


def test_peak_rss_eleven_percent_worse_is_outside_its_bound():
    bench_pairs = load_bench_pairs()
    summary = bench_pairs.summarize(pairs({"peak_rss_mb": 1.11, "ops_per_s": 0.9}, ops=(1600, 3040)), METRICS)
    assert summary["peak_rss_mb"]["bound"] == 0.1
    assert not summary["peak_rss_mb"]["within_bound"]
    assert summary["ops_per_s"]["within_bound"]  # 10% fewer ops is inside its 25% bound
    [line] = bench_pairs.outside_bounds(summary)
    assert line.startswith("peak_rss_mb +11.0% is outside its bound of 10%")
    assert line.endswith("ops attempted: parent median 1601, change median 3041)")


def test_rss_change_prints_beside_the_op_count_change_within_its_bound_too():
    bench_pairs = load_bench_pairs()
    within = bench_pairs.summarize(pairs({"peak_rss_mb": 1.05}, ops=(1000, 1230)), METRICS)
    assert within["peak_rss_mb"]["within_bound"]
    assert bench_pairs.rss_lines(within) == [
        "peak_rss_mb +5.0% (parent median 39.5, change median 41.48) beside ops attempted +23.0% "
        "(parent median 1001, change median 1231)"]
    outside = bench_pairs.summarize(pairs({"peak_rss_mb": 1.11}, ops=(1600, 3040)), METRICS)
    [line] = bench_pairs.rss_lines(outside)
    assert line.startswith("peak_rss_mb +11.0% ") and "beside ops attempted +89.9% " in line
    outside["peak_rss_mb"]["attempted"]["parent"] = 0  # a parent that attempted no op gives no ratio
    assert "beside ops attempted n/a (parent median 0, change median 3041)" in bench_pairs.rss_lines(outside)[0]
    assert bench_pairs.rss_lines({}) == []


def test_label_medians_give_each_sides_raw_median_per_label():
    bench_pairs = load_bench_pairs()
    runs = pairs({})
    for i, pair in enumerate(runs):
        pair["parent"]["op_ms_by_label"] = {"depth": 130.0 + i, "verify": 330.0 + i}
        pair["change"]["op_ms_by_label"] = {"depth": 110.0 + i} | ({"verify": 315.0} if i < 9 else {})
    runs.append({"parent": {"correct": False}, "change": {"correct": False}})  # a failed pair reads nothing
    runs[0]["parent"]["op_ms_by_label"]["cs"] = 7.0  # one run is its own median and quartiles
    assert bench_pairs.label_medians(runs) == {
        "cs": {"parent": {"median": 7.0, "q1": 7.0, "q3": 7.0}, "change": None},
        "depth": {"parent": {"median": 134.5, "q1": 132.25, "q3": 136.75},
                  "change": {"median": 114.5, "q1": 112.25, "q3": 116.75}},
        "verify": {"parent": {"median": 334.5, "q1": 332.25, "q3": 336.75},
                   "change": {"median": 315.0, "q1": 315.0, "q3": 315.0}},
    }
    assert bench_pairs.label_medians([runs[-1]]) == {}


def test_label_lines_print_each_labels_raw_median_parent_to_change():
    bench_pairs = load_bench_pairs()
    medians = {
        "depth": {"parent": {"median": 134.5, "q1": 132.25, "q3": 136.75},
                  "change": {"median": 114.5, "q1": 112.25, "q3": 116.75}},
        "flags": {"parent": {"median": 80.0, "q1": 78.0, "q3": 83.0},
                  "change": {"median": 83.0, "q1": 80.0, "q3": 85.0}},
        "verify": {"parent": {"median": 334.54, "q1": 332.25, "q3": 336.75}, "change": None},
    }
    assert bench_pairs.label_lines(medians) == [
        "depth raw median 134.5 (q1-q3 132.2-136.8) -> 114.5 (q1-q3 112.2-116.8) ms",
        "flags raw median 80.0 (q1-q3 78.0-83.0) -> 83.0 (q1-q3 80.0-85.0) ms, within spread",
        "verify raw median 334.5 (q1-q3 332.2-336.8) -> - ms",
    ]


def test_a_run_reads_its_checkouts_results_file(tmp_path):
    # A stand-in benchmark that writes the results file and prints the summary line.
    bench_pairs = load_bench_pairs()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "results = pathlib.Path('perfbench/results')\n"
        "results.mkdir()\n"
        "stem = f\"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}\"\n"
        "(results / f'{stem}.json').write_text(json.dumps({'op_ms_by_label': {'verify': 321.5}}))\n"
        "print(json.dumps({'correct': True, 'attempted': 40, 'failed': 0,\n"
        "                  'metrics': {'ops_per_s': {'value': 7.5, 'unit': '1/s'}}}))\n",
        encoding="utf-8",
    )
    run = bench_pairs.run_once(tmp_path, "reproduce", 3)
    assert run == {"ops_per_s": 7.5, "correct": True, "attempted": 40, "failed": 0,
                   "op_ms_by_label": {"verify": 321.5}}


def test_host_records_the_blas_thread_settings_both_sides_inherit(monkeypatch):
    bench_pairs = load_bench_pairs()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    host = bench_pairs.host()
    assert {k: host[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "4"}
    assert {"nproc", "python", "machine"} <= set(host)
