"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_10.json --seeds 1 7

Run from the root of a steanesim checkout. The parent revision is exported
with ``git archive`` into a temporary directory. Every workload of
``BENCHMARK.json`` runs in 10 pairs per seed; each run is

    python3 perfbench/run.py --workload W --seed S --seconds 36 --trace 0

started from the parent's export or from the working tree (uncommitted
edits included). The runs of one pair follow each other, the parent first
in even-numbered pairs and the change first in odd ones, and the pairs of
one workload and seed run back to back. The output file holds, per workload
and seed, every run's five end-to-end metrics and ``correct`` flag, each
side's median and quartiles per metric, and the number of pairs in which
the change reads better (ties count for neither side), with the direction
taken from ``BENCHMARK.json``. Its ``host`` block names the machine and the
runner's ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` (null when unset), which both sides inherit. It also
holds each metric's relative change of the change median against the parent
median, whether that change stays within the metric's ``BENCHMARK.json``
bound, and each side's median count of attempted ops over the same runs;
every metric outside its bound is printed per workload and seed, with those
op counts beside it (a run that does more ops records more of them, which
``peak_rss_mb`` counts too). The change in ``peak_rss_mb`` is printed beside
the change in median attempted ops for every workload and seed, within its
bound or not. Each op label's raw median ms and quartiles,
parent -> change, are printed per workload and seed as well, which shows
the command or op kind that moved; a label whose change median lies inside
the parent's q1-q3 is marked ``within spread``.

A metric is ``claimable`` when the change reads better in at least 9 of
every 10 pairs and its median is better than the parent's by more than the
parent's q3 - q1: a gain that clears both the pair vote and the parent's
own spread. Each claimable metric is printed per workload and seed.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 36  # the run length BENCHMARK.json fixes
PAIRS = 10  # the fewest pairs that can back a claimed gain
CLAIM_WINS = 9  # pairs of every PAIRS the change must win for a claim


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, check=True).stdout


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, unpacked under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)


def source_sha256(checkout: Path) -> str:
    """The hash ``perfbench/run.py`` records for ``src/steanesim/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "steanesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host() -> dict:
    """The runner's machine, and the BLAS thread settings it passes to both
    sides (None when unset): a preset value would speed up the parent too."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine(),
            **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run: its end-to-end metric values, ``correct`` flag, op
    counts and raw median ms per op label."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    results = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    by_label = json.loads(results.read_text(encoding="utf-8"))["op_ms_by_label"]
    return {**values, "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "op_ms_by_label": by_label}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        both = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if len(both) < 2:
            continue
        parent, change = spread([p["parent"][name] for p in both]), spread([p["change"][name] for p in both])
        attempted = {side: statistics.median(p[side]["attempted"] for p in both) for side in ("parent", "change")}
        relative = (change["median"] - parent["median"]) / parent["median"]
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in both)
        out[name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(both),
            "claimable": wins * PAIRS >= CLAIM_WINS * len(both)
            and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"],
            "relative_change": relative,
            "bound": metric["bound"],
            "within_bound": sign * relative <= metric["bound"],  # worse by at most the bound
            "attempted": attempted,
        }
    return out


def label_medians(pairs: list[dict]) -> dict:
    """Per op label, each side's ``spread`` of its runs' raw ms per op (a
    single run is its own median and quartiles; None for a side with no run
    that did the label)."""
    runs = {side: [p[side].get("op_ms_by_label", {}) for p in pairs] for side in ("parent", "change")}
    labels = sorted({label for by_label in runs["parent"] + runs["change"] for label in by_label})
    return {label: {side: spread(v if len(v) > 1 else v * 2) if (v := [r[label] for r in runs[side] if label in r])
                    else None for side in runs} for label in labels}


def label_lines(medians: dict) -> list[str]:
    """One line per op label of ``label_medians``: each side's raw median and
    q1-q3, parent -> change, marked ``within spread`` when the change median
    lies inside the parent's q1-q3."""
    def ms(s):
        return "-" if s is None else f"{s['median']:.1f} (q1-q3 {s['q1']:.1f}-{s['q3']:.1f})"
    lines = []
    for label, m in medians.items():
        parent, change = m["parent"], m["change"]
        within = parent and change and parent["q1"] <= change["median"] <= parent["q3"]
        lines.append(f"{label} raw median {ms(parent)} -> {ms(change)} ms" + (", within spread" if within else ""))
    return lines


def outside_bounds(summary: dict) -> list[str]:
    """One line per metric of ``summarize`` whose median got worse by more than its bound."""
    return [f"{name} {s['relative_change']:+.1%} is outside its bound of {s['bound']:.0%} (parent median "
            f"{s['parent']['median']:.4g}, change median {s['change']['median']:.4g}; ops attempted: parent "
            f"median {s['attempted']['parent']:g}, change median {s['attempted']['change']:g})"
            for name, s in summary.items() if not s["within_bound"]]


def claim_lines(summary: dict) -> list[str]:
    """One line per ``claimable`` metric of ``summarize``."""
    return [f"{name} {s['relative_change']:+.1%} is claimable: the change won {s['change_wins']} of {s['pairs']} "
            f"pairs, and its median {s['change']['median']:.4g} is past the parent's median "
            f"{s['parent']['median']:.4g} by more than the parent's q3 - q1 of "
            f"{s['parent']['q3'] - s['parent']['q1']:.4g}"
            for name, s in summary.items() if s["claimable"]]


def rss_lines(summary: dict) -> list[str]:
    """``peak_rss_mb``'s median change beside the change in median attempted
    ops (one line; none when ``summarize`` holds no RSS): memory that grows
    with the op count reads as a regression of a faster change."""
    if "peak_rss_mb" not in summary:
        return []
    s = summary["peak_rss_mb"]
    ops = s["attempted"]
    grew = f"{ops['change'] / ops['parent'] - 1:+.1%}" if ops["parent"] else "n/a"
    return [f"peak_rss_mb {s['relative_change']:+.1%} (parent median {s['parent']['median']:.4g}, change median "
            f"{s['change']['median']:.4g}) beside ops attempted {grew} (parent median {ops['parent']:g}, "
            f"change median {ops['change']:g})"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write, e.g. BENCH_10.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]

    report = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 36 --trace 0",
        "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent).decode().strip()},
        "change": {"head": git("rev-parse", "HEAD").decode().strip(), "source_sha256": source_sha256(ROOT)},
        "host": host(),
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "runs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        report["parent"]["source_sha256"] = source_sha256(parent)
        for workload in (w["name"] for w in benchmark["workloads"]):
            for seed in args.seeds:
                pairs = []
                for i in range(PAIRS):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(parent if side == "parent" else ROOT, workload, seed)
                    pairs.append(pair)
                    print(f"{workload} seed={seed} pair {i + 1}/{PAIRS}: "
                          f"parent {pair['parent'].get('op_p90_ms')} ms, change {pair['change'].get('op_p90_ms')} ms "
                          f"(op_p90_ms)", flush=True)
                summary, medians = summarize(pairs, metrics), label_medians(pairs)
                report["runs"][f"{workload}/seed{seed}"] = {
                    "workload": workload, "seed": seed, "pairs": pairs, "summary": summary,
                    "op_ms_by_label": {"unit": "ms per op, raw: not scaled by the calibration loop",
                                       "spread": medians},
                }
                for line in [*label_lines(medians), *rss_lines(summary), *claim_lines(summary),
                             *(outside_bounds(summary) or ["every metric within its bound"])]:
                    print(f"{workload} seed={seed}: {line}", flush=True)
                args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
