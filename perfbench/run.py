"""steanesim benchmark: one command per run, one workload per run.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 36 --trace 0

Runs from the root of a steanesim checkout and imports the package from its
``src/``. Every op is a closed loop (the next op starts when the previous
one returns) in this single process, with no extra threads; ``reproduce``
starts one CLI child process per op. Every op's output is checked. With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
runs the same ops in-process with and without layer tracing and prints the
per-layer metrics. Times are scaled to a reference host speed measured by
an interleaved calibration loop. The last stdout line is one JSON object; a
results file with a provenance block goes to ``perfbench/results/``. See
README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
GOLDENS = HERE / "goldens"
SETUP_PROBES = 31
CHILD_TIMEOUT_S = 120
# Timings are reported at a reference speed: the speed at which
# calibration_loop() takes CALIBRATION_REF_S. The host's speed drifts by up to
# 1.7x over tens of seconds, and the loop tracks that drift.
CALIBRATION_REF_S = 0.006
CALIBRATION_EVERY_S = 0.2


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources first, and
    bytecode caching on so the untimed warm-up pays the compilation."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that never calls steanesim."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(40_000):
        acc += (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
    return time.perf_counter() - t0


class OpClock:
    """Accumulates an op's timed regions; tracing follows the same regions."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False
        return False


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Reproduce:
    """The nine paper-reproduction commands. Untraced, each op is a fresh
    ``python -m steanesim.cli`` process; traced, each op is ``cli.main(argv)``
    in this process with the package's caches cleared first, as a fresh
    process would start."""

    name = "reproduce"

    def __init__(self, seed: int, in_process: bool):
        self.passes = W.reproduce_passes(seed)
        self.in_process = in_process
        self.goldens = {key: (GOLDENS / f"{key}.txt").read_bytes() for key, _ in W.REPRODUCE_COMMANDS}
        self.env = child_env()
        self.fresh_caches = in_process
        # A CLI child's time follows the calibration loop's only about half
        # as much (log-log slope 0.44-0.47 over ten passes, measured twice);
        # about half of a child's time is interpreter and numpy start-up.
        self.speed_exponent = 1.0 if in_process else 0.5
        self.notes: dict = {}

    def label(self, op) -> str:
        return op[0]

    def setup(self, run) -> None:
        """Untimed warm-up pass: compiles the .pyc files, fills the page cache
        and, in-process, pays every first call. Its failures show again in
        the timed passes."""
        run.one_pass(W.REPRODUCE_COMMANDS)
        run.records.clear()
        run.pass_seconds[False].clear()
        run.pass_calibration[False].clear()

    def run_op(self, op, clock: OpClock) -> str | None:
        key, argv = op
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), clock:
                code = cli.main(list(argv))
            stdout = buf.getvalue().encode("utf-8")
        else:
            with clock:
                proc = subprocess.run(
                    [sys.executable, "-m", "steanesim.cli", *argv], cwd=ROOT, env=self.env,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                )
            code, stdout = proc.returncode, proc.stdout
            if code != 0:
                tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                return f"exit code {code}: {' '.join(tail)}"
        if code != 0:
            return f"exit code {code}"
        if stdout != self.goldens[key]:
            return "stdout differs from golden"
        return None


def analyse(circuit):
    """The variant-sweep op's analysis: views, ledgers, classes, depth
    profile and flag audit. Looked up on the modules so tracing sees it."""
    views = {t: faults.view_table(circuit, t) for t in "XYZ"}
    x_ledger = faults.derive_perfect_assumptions(views["X"])
    z_ledger = faults.derive_perfect_assumptions(views["Z"])
    ledgers = {"X": x_ledger, "Y": x_ledger | z_ledger, "Z": z_ledger}
    classes = {t: faults.classify_collisions(views[t], ledgers[t]) for t in "XYZ"}
    profile = depth.count_fault_locations(circuit, x_ledger, z_ledger)
    reports = faults.check_flag_conditions(circuit, x_ledger, z_ledger)
    return x_ledger, z_ledger, classes, profile, reports


def digest(analysis) -> tuple:
    """Comparable form of an analysis: ledgers, profile, flag verdicts and
    every signature class with its verdict and members."""
    x_ledger, z_ledger, classes, profile, reports = analysis
    return (
        tuple(faults.ledger_names(x_ledger)),
        tuple(faults.ledger_names(z_ledger)),
        (profile.r_x, profile.r_y, profile.r_z),
        tuple((r.gadget_id, r.condition1, r.condition2, r.condition3) for r in reports),
        tuple(
            (t, str(c.signature), c.verdict, tuple(loc.display_name() for loc, _ in c.members))
            for t in "XYZ" for c in classes[t]
        ),
    )


class VariantSweep:
    """Full analysis of one builder configuration per op, read back through
    serialize -> parse -> reconstruct_meta on a wire-permuted copy."""

    name = "variant-sweep"
    fresh_caches = False
    speed_exponent = 1.0

    def __init__(self, seed: int, in_process: bool):
        self.passes = W.variant_passes(seed)
        self.references: dict = {}
        self.seen: set[str] = set()
        self.notes: dict = {"known_failures": {}, "pinned_checks": 0}

    def label(self, op) -> str:
        return op.config.name

    def setup(self, run) -> None:
        """Untimed: reference analyses of the built circuits, and the
        known-broken configurations as probes."""
        for config in W.STREAM_CONFIGS:
            try:
                circuit = builders.build_full_ec_circuit(**config.build_kwargs())
                self.seen.add(circuits.serialize(circuit))
                self.references[config] = digest(analyse(circuit))
            except Exception as exc:  # noqa: BLE001 - every op on this configuration fails with it
                self.references[config] = f"reference analysis raised {type(exc).__name__}: {exc}"
        for config in W.PROBE_CONFIGS:
            self.notes["known_failures"][config.name] = self._probe(config)

    @staticmethod
    def _check_pinned(block: str, result: tuple) -> str | None:
        """The default configurations' ledgers, profiles, R and flag audit."""
        x_names, z_names, profile, flags, _ = result
        R = depth.effective_R(depth.DepthProfile(*profile)).R
        if block == "data":
            want = (tuple(sorted(pinned.X_PERFECT)), tuple(sorted(pinned.Z_PERFECT)),
                    (pinned.DATA_BLOCK_RX, pinned.DATA_BLOCK_RY, pinned.DATA_BLOCK_RZ), pinned.DATA_BLOCK_R)
            got = (x_names, tuple(sorted(z_names)), profile, R)
        else:
            want = ((), (pinned.AUX_BLOCK_RX, pinned.AUX_BLOCK_RX, (0,) * 7), pinned.AUX_BLOCK_R)
            got = (x_names, profile, R)
        if got != want or not all(c1 and c2 and c3 for _, c1, c2, c3 in flags):
            return f"default {block} configuration differs from pinned"
        return None

    def _probe(self, config) -> str | None:
        """Built-circuit analysis and round-trip analysis of one configuration;
        returns the failure, naming every exception raised, or None."""
        outcomes = []
        for path in ("built", "round-trip"):
            try:
                circuit = builders.build_full_ec_circuit(**config.build_kwargs())
                if path == "round-trip":
                    circuit = faults.reconstruct_meta(circuits.parse(circuits.serialize(circuit)))
                outcomes.append(digest(analyse(circuit)))
            except Exception as exc:  # noqa: BLE001 - the probe reports whatever the program raises
                outcomes.append(f"{path}: {type(exc).__name__}: {exc}")
        errors = [o for o in outcomes if isinstance(o, str)]
        if errors:
            return "; ".join(errors)
        return None if outcomes[0] == outcomes[1] else "round-trip analysis differs from built circuit"

    def run_op(self, op, clock: OpClock) -> str | None:
        with clock:
            text = circuits.serialize(builders.build_full_ec_circuit(**op.config.build_kwargs()))
        text = W.relabel(text, op.relabel_seed)
        if text in self.seen:
            raise RuntimeError(f"circuit repeated within one process: {op}")
        self.seen.add(text)
        with clock:
            analysis = analyse(faults.reconstruct_meta(circuits.parse(text)))
        result = digest(analysis)
        reference = self.references[op.config]
        if isinstance(reference, str):
            return reference
        if result != reference:
            return "round-trip analysis differs from built circuit"
        if op.config == W.DEFAULT_CONFIGS[op.config.block]:
            self.notes["pinned_checks"] += 1
            return self._check_pinned(op.config.block, result)
        return None


class ThresholdSweep:
    """One ``optimize_x`` query per op against the two block depths computed
    at set-up."""

    name = "threshold-sweep"
    fresh_caches = False
    speed_exponent = 1.0

    def __init__(self, seed: int, in_process: bool):
        self.passes = W.threshold_passes(seed)
        self.cells = W.pinned_cells()
        self.literal: dict = {}
        self.notes: dict = {"pinned_checks": 0, "literal_checks": 0}

    def label(self, op) -> str:
        return f"{op.block}/{op.gate_class}/k{op.k}"

    def setup(self, run) -> None:
        self.depths = {block: depth.block_analysis(block)[4] for block in ("data", "aux")}

    def run_op(self, op, clock: OpClock) -> str | None:
        block = self.depths[op.block]
        with clock:
            res = threshold.optimize_x(block, op.k, op.r, op.gate_class, op.x_max)
        return self._check(op, block, res)

    def _check(self, op, block, res) -> str | None:
        def p_at(x):
            return threshold.p_th(block, op.k, x, op.r, op.gate_class)

        x = res.x_star
        if not 1 <= x <= op.x_max:
            return f"x_star {x} outside 1..{op.x_max}"
        if res.max_p_th != p_at(x) or res.c_at_x_star != threshold.coefficient_c(block, op.k, x):
            return "result disagrees with p_th and c at x_star"
        if (x > 1 and p_at(x - 1) >= res.max_p_th) or (x < op.x_max and p_at(x + 1) > res.max_p_th):
            return "x_star is not the first local maximum"
        cell = self.cells.get(op)
        if cell is not None:
            x_pin, p_pin = cell
            if (x_pin is not None and x != x_pin) or abs(res.max_p_th - p_pin) > 1e-9 * p_pin:
                return "pinned table cell differs"
            self.notes["pinned_checks"] += 1
        if op.k <= 5:
            key = (op.block, op.k)
            if key not in self.literal:
                self.literal[key] = threshold.expand_levels(block, op.k)
            if threshold.coefficient_c0_literal(self.literal[key], x, block.gamma) != threshold.coefficient_c0(block, op.k, x):
                return "closed-form and literal c0 disagree"
            self.notes["literal_checks"] += 1
        return None


WORKLOADS = {cls.name: cls for cls in (Reproduce, VariantSweep, ThresholdSweep)}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class OpRecord(NamedTuple):
    """One attempted op; ``seconds`` is its timed regions, unscaled, and
    ``calibration`` the mean time of the calibration loops run just before
    and just after the stretch of ops that holds it."""

    op_id: int
    pass_no: int
    label: str
    seconds: float
    error: str | None
    traced: bool
    calibration: float


class Run:
    """The op records and pass times of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.records: list[OpRecord] = []
        self.pass_seconds: dict[bool, list[float]] = {False: [], True: []}
        self.pass_calibration: dict[bool, list[float]] = {False: [], True: []}
        self.setup_seconds: list[float] = []
        self.setup_calibration: list[float] = []
        self.next_op = 0
        # Collected before tracing swaps the module attributes for wrappers.
        self.caches = [fn for mod in steanesim_modules() for fn in vars(mod).values()
                       if hasattr(fn, "cache_clear") and getattr(fn, "__module__", "").startswith("steanesim")]
        self.block_analysis = depth.block_analysis

    def clear_caches(self) -> None:
        """Empty every lru_cache in the package, as a fresh process starts."""
        for fn in self.caches:
            fn.cache_clear()

    def one_pass(self, ops, tracer=None) -> None:
        """Runs the ops and, between them, the calibration loop about every
        CALIBRATION_EVERY_S of op time and after the last op."""
        traced = tracer is not None
        total = 0.0
        calibration = [calibration_loop()]
        since = 0.0
        pass_no = len(self.pass_seconds[traced])
        stretch = []
        for i, op in enumerate(ops):
            op_id = self.next_op
            self.next_op += 1
            if self.workload.fresh_caches:
                self.clear_caches()
            if tracer is not None:
                tracer.op = op_id
                hits = self.block_analysis.cache_info().hits
            clock = OpClock(tracer)
            try:
                error = self.workload.run_op(op, clock)
            except Exception as exc:  # noqa: BLE001 - any exception fails the op, named in the results
                error = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.counts[(op_id, "depth.block_analysis.hits")] += self.block_analysis.cache_info().hits - hits
                tracer.end_op()
            total += clock.seconds
            since += clock.seconds
            stretch.append((op_id, self.workload.label(op), clock.seconds, error))
            if since >= CALIBRATION_EVERY_S or i == len(ops) - 1:
                calibration.append(calibration_loop())
                bracket = (calibration[-2] + calibration[-1]) / 2
                self.records.extend(OpRecord(op_id, pass_no, label, seconds, error, traced, bracket)
                                    for op_id, label, seconds, error in stretch)
                stretch.clear()
                since = 0.0
        self.pass_seconds[traced].append(total)
        self.pass_calibration[traced].append(statistics.median(calibration))

    def until(self, seconds: float, tracer=None, setup_probe=None) -> None:
        """Whole passes until the next one would end after ``seconds``; with a
        tracer, untraced and traced passes alternate. ``setup_probe`` runs
        SETUP_PROBES times, spread evenly over the passes, so that set-up
        time samples the same stretch of host speed as the ops."""
        start = time.perf_counter()
        last = 0.0
        while not self.pass_seconds[False] or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            self.one_pass(next(self.workload.passes))
            if tracer is not None:
                tracer.install()
                try:
                    self.one_pass(next(self.workload.passes), tracer)
                finally:
                    tracer.uninstall()
            due = math.ceil((time.perf_counter() - start) / seconds * SETUP_PROBES)
            while setup_probe is not None and len(self.setup_seconds) < min(due, SETUP_PROBES):
                self.probe_setup(setup_probe)
            last = time.perf_counter() - t0
        while setup_probe is not None and len(self.setup_seconds) < SETUP_PROBES:
            self.probe_setup(setup_probe)

    def probe_setup(self, setup_probe) -> None:
        seconds, calibration = setup_probe()
        self.setup_seconds.append(seconds)
        self.setup_calibration.append(calibration)

    def ops(self, traced: bool) -> list[OpRecord]:
        return [r for r in self.records if r.traced == traced]


def steanesim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "steanesim" or name.startswith("steanesim."))]


def setup_probe(workload: str) -> tuple[float, float]:
    """Import-plus-first-build time of the workload in a fresh interpreter,
    and the calibration loop's time in that interpreter right after it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode('utf-8', 'replace').strip()}")
    seconds, calibration = proc.stdout.decode().split()[-2:]
    return float(seconds), float(calibration)


def end_to_end(run: Run, peak_rss_mb: float, normalize: bool) -> dict:
    """Timings are taken per pass, where every pass carries the workload's
    whole mix, and reported as the median over passes. A pass's ops cost
    fixed, well-separated amounts, so a percentile of the pooled ops would
    sit between two classes and swing with their extremes. With
    ``normalize`` every time is scaled to the reference speed by the
    calibration loops that bracket its op, raised to the workload's speed
    exponent, or for a set-up probe by the loop in the probe's own
    interpreter right after it."""
    def scale(calibration: float, exponent: float) -> float:
        return (CALIBRATION_REF_S / calibration) ** exponent if normalize else 1.0

    passes: dict[int, list[OpRecord]] = {}
    for r in run.ops(False):
        passes.setdefault(r.pass_no, []).append(r)
    p50, p90, throughput = [], [], []
    for ops in passes.values():
        seconds = [r.seconds * scale(r.calibration, run.workload.speed_exponent) for r in ops]
        # A failed op counts as missing any latency limit; quantiles() gives
        # nan where it weighs an infinite time by zero.
        deciles = [math.inf if math.isnan(q) else q for q in statistics.quantiles(
            [t if r.error is None else math.inf for t, r in zip(seconds, ops)], n=10)]
        p50.append(deciles[4])
        p90.append(deciles[8])
        throughput.append(sum(r.error is None for r in ops) / sum(seconds))
    return {
        "setup_s": (statistics.median(t * scale(c, 1.0) for t, c in zip(run.setup_seconds, run.setup_calibration)), "s"),
        "ops_per_s": (statistics.median(throughput), "1/s"),
        "op_p50_ms": (statistics.median(p50) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(p90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(run: Run, tracer, import_ms: float) -> dict:
    """Per-pass layer counts and times of the traced passes; times are at
    the reference speed, like the end-to-end ones."""
    scale = {r.op_id: CALIBRATION_REF_S / run.pass_calibration[True][r.pass_no] for r in run.ops(True)}
    busy, self_t, calls, op_calls = tracer.layer_totals(scale)
    n = len(run.pass_seconds[True])
    counts: Counter = Counter()
    for (_, name), value in tracer.counts.items():
        counts[name] += value
    prop_calls = calls["inject_and_propagate"]
    distinct = sum(len(keys) for keys in tracer.distinct.values())
    queries = calls["optimize_x"]
    ms = 1e3 / n
    metrics = {
        "faults.propagate.calls": (prop_calls / n, "count"),
        "faults.propagate.distinct": (distinct / n, "count"),
        "faults.propagate.unique_ratio": (distinct / prop_calls if prop_calls else 0.0, "ratio"),
        "faults.propagate.busy_ms": (busy["faults.propagate"] * ms, "ms"),
        "faults.propagate.us_per_call": (busy["faults.propagate"] * 1e6 / prop_calls if prop_calls else 0.0, "us"),
        "faults.classify.calls": (calls["layer:faults.classify"] / n, "count"),
        "faults.classify.self_ms": (self_t["faults.classify"] * ms, "ms"),
        "faults.flags.calls": (calls["layer:faults.flags"] / n, "count"),
        "faults.flags.self_ms": (self_t["faults.flags"] * ms, "ms"),
        "faults.flags.busy_ms": (busy["faults.flags"] * ms, "ms"),
        "depth.calls": (calls["layer:depth"] / n, "count"),
        "depth.self_ms": (self_t["depth"] * ms, "ms"),
        "depth.block_analysis.hits": (counts["depth.block_analysis.hits"] / n, "count"),
        "threshold.queries": (queries / n, "count"),
        "threshold.coefficient_calls": (counts["threshold.coefficient_calls"] / n, "count"),
        "threshold.busy_ms": (busy["threshold"] * ms, "ms"),
        "threshold.us_per_query": (busy["threshold"] * 1e6 / queries if queries else 0.0, "us"),
        "statevec.simulate.calls": (calls["simulate_statevector"] / n, "count"),
        "statevec.simulate.busy_ms": (busy["statevec"] * ms, "ms"),
        "verification.self_ms": (self_t["verification"] * ms, "ms"),
        "verification.oracle_faults": (counts["verification.oracle_faults"] / n, "count"),
        "builders.calls": (calls["layer:builders"] / n, "count"),
        "builders.busy_ms": (busy["builders"] * ms, "ms"),
        "circuits.calls": (calls["layer:circuits"] / n, "count"),
        "circuits.busy_ms": (busy["circuits"] * ms, "ms"),
        "resources.busy_ms": (busy["resources"] * ms, "ms"),
        "cli.self_ms": (self_t["cli"] * ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.overhead_ratio": (statistics.median(reference_seconds(run, True))
                                 / statistics.median(reference_seconds(run, False)), "ratio"),
    }
    labels = {r.op_id: r.label for r in run.ops(True)}
    for key, _ in W.REPRODUCE_COMMANDS:
        ops = [op_id for op_id, label in labels.items() if label == key]
        metrics[f"cmd.{key}.propagate.calls"] = (
            sum(op_calls[(op_id, "inject_and_propagate")] for op_id in ops) / n, "count")
        metrics[f"cmd.{key}.propagate.distinct"] = (
            sum(len(tracer.distinct.get(op_id, ())) for op_id in ops) / n, "count")
    return metrics


def reference_seconds(run: Run, traced: bool) -> list[float]:
    """Pass times at the reference speed."""
    exponent = run.workload.speed_exponent
    return [t * (CALIBRATION_REF_S / c) ** exponent for t, c in zip(run.pass_seconds[traced], run.pass_calibration[traced])]


def by_label(ops) -> dict:
    """Median op time per label (command, configuration or query class)."""
    groups: dict = {}
    for r in ops:
        if r.error is None:
            groups.setdefault(r.label, []).append(r.seconds * 1e3)
    return {label: statistics.median(v) for label, v in sorted(groups.items())}


def provenance(workload: str, seed: int, trace: bool, seconds: float, load: tuple) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
        commit = proc.stdout.decode().strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "steanesim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(load),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load = os.getloadavg()
    if not (SRC / "steanesim" / "__init__.py").is_file():
        print(f"error: no steanesim sources under {SRC}; run from a steanesim checkout", file=sys.stderr)
        return 2

    global W, cli, builders, circuits, depth, faults, pinned, threshold
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import steanesim.cli as cli
    import_ms = (time.perf_counter() - t0) * 1e3
    import steanesim
    if Path(steanesim.__file__).resolve().parent != SRC / "steanesim":
        print(f"error: imported steanesim from {steanesim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "reproduce":
        import steanesim.verification  # noqa: F401 - imported before tracing wraps its names
    from steanesim import builders, circuits, depth, faults, pinned, threshold
    import workloads as W

    trace = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, in_process=trace)
    run = Run(workload)
    workload.setup(run)
    if trace:
        from spans import Tracer
        tracer = Tracer()
        run.until(args.seconds, tracer)
        metrics = per_layer(run, tracer, import_ms)
    else:
        setup_probe(args.workload)  # untimed: compiles the bytecode caches
        run.until(args.seconds, setup_probe=lambda: setup_probe(args.workload))
        who = resource.RUSAGE_CHILDREN if args.workload == "reproduce" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics = end_to_end(run, peak_rss_mb, normalize=True)
        raw = end_to_end(run, peak_rss_mb, normalize=False)

    failures = Counter(r.error for r in run.records if r.error is not None)
    attempted, failed = len(run.records), sum(failures.values())
    probes = workload.notes.get("known_failures", {})
    known = {config: reason for config, reason in probes.items() if reason}
    extra = {"fail_ratio": ((failed + len(known)) / (attempted + len(probes)), "ratio")}
    if not trace:
        extra.update({f"raw.{name}": value for name, value in raw.items() if name != "peak_rss_mb"})
        extra["calibration_ms"] = (statistics.median(run.pass_calibration[False]) * 1e3, "ms")
    if args.workload == "reproduce" and not trace:
        extra["reproduce_s"] = (statistics.median(reference_seconds(run, False)), "s")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    result = {
        "provenance": provenance(args.workload, args.seed, trace, args.seconds, load),
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "notes": workload.notes,
        "passes": {"untraced": len(run.pass_seconds[False]), "traced": len(run.pass_seconds[True])},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "pass_seconds": {"untraced": run.pass_seconds[False], "traced": run.pass_seconds[True]},
        "pass_calibration_seconds": {"untraced": run.pass_calibration[False], "traced": run.pass_calibration[True]},
        "setup_seconds": run.setup_seconds,
        "op_ms_by_label": by_label(run.ops(False)),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if trace:
        tracer.write(RESULTS / f"{stem}-spans.json.gz")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops in "
          f"{len(run.pass_seconds[False])}+{len(run.pass_seconds[True])} passes, {failed} failed")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for reason, count in failures.items():
        print(f"  failure: {count} x {reason}")
    for config, reason in known.items():
        print(f"  known failure: {config}: {reason}")
    print(f"  results: {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
