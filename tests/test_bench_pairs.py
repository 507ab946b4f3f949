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
