"""Span tracing of steanesim's layers, done from outside the package.

The tracer swaps each traced function for a wrapper in every steanesim
module namespace that holds it (``depth`` and ``cli`` import
``inject_and_propagate`` and ``block_analysis`` by name, for example), and
puts the originals back on ``uninstall``. A wrapper records one span per
call: op id, name, start, end and parent span. Spans stay in memory until
the run ends. Hot inner functions are counted without a span.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer). Layer names follow the ROADMAP's layers.
SPAN_TARGETS = (
    [("steanesim.builders", name, "builders") for name in (
        "build_full_ec_circuit", "build_encoder", "build_decoder", "build_t_gadget",
        "build_toffoli_gadget", "build_x_round_segment", "build_z_round_segment",
        "build_steane_state_circuit", "build_t_gadget_trivial", "build_theta_prep_trivial",
        "build_a_prep_trivial", "build_toffoli_gadget_trivial", "build_gadget",
    )]
    + [("steanesim.circuits", "parse", "circuits"), ("steanesim.circuits", "serialize", "circuits"),
       ("steanesim.faults", "reconstruct_meta", "circuits")]
    + [("steanesim.faults", "inject_and_propagate", "faults.propagate")]
    + [("steanesim.faults", name, "faults.classify")
       for name in ("view_table", "classify_collisions", "derive_perfect_assumptions")]
    + [("steanesim.faults", "check_flag_conditions", "faults.flags")]
    + [("steanesim.depth", name, "depth") for name in (
        "count_fault_locations", "effective_R", "block_analysis", "data_block_depth", "aux_block_depth")]
    + [("steanesim.threshold", name, "threshold") for name in (
        "optimize_x", "curve", "generate_table_1", "generate_table_2", "expand_levels")]
    + [("steanesim.resources", name, "resources") for name in (
        "derived_cnot_counts", "cnot_count", "estimate_runtime", "check_permitted_depth")]
    + [("steanesim.statevec", "simulate_statevector", "statevec")]
    + [("steanesim.verification", name, "verification") for name in (
        "run_all", "check_encoder_codewords", "check_steane_state", "check_decoder_inverts_encoder",
        "check_t_gadget", "check_theta_prep", "check_a_prep", "check_toffoli_gadget",
        "check_propagation_oracle")]
    + [("steanesim.cli", name, "cli") for name in (
        "cmd_propagate", "cmd_flags", "cmd_depth", "cmd_tables", "cmd_threshold",
        "cmd_resources", "cmd_verify", "cmd_circuit")]
)
# Called thousands of times per query; a span each would swamp the layer.
COUNT_TARGETS = (
    ("steanesim.threshold", "coefficient_c0", "threshold.coefficient_calls"),
    ("steanesim.threshold", "coefficient_c0_literal", "threshold.coefficient_calls"),
)
PROPAGATE = "inject_and_propagate"
ORACLE = "check_propagation_oracle"


class Tracer:
    """Records spans and counts for op ``op`` while ``active``; otherwise
    the wrappers only forward the call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.layers: dict[str, str] = {}
        self.spans: list = []          # [op, name id, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self.active = False
        self.distinct: dict = defaultdict(set)   # op -> propagated (circuit, label, side, pauli)
        self._alive: list = []                    # circuits keyed by id() stay alive
        self._patches: list = []
        self.t_origin = time.perf_counter()

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for module, name, layer in SPAN_TARGETS:
            self._patch(module, name, self._span_wrapper(name, layer))
        for module, name, counter in COUNT_TARGETS:
            self._patch(module, name, self._count_wrapper(counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module_name: str, name: str, make) -> None:
        """Wraps ``name`` wherever it is bound; a module not imported yet
        (``verification`` outside ``reproduce``) has nothing to wrap."""
        if module_name not in sys.modules:
            return
        original = getattr(sys.modules[module_name], name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "steanesim" or mod_name.startswith("steanesim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _span_wrapper(self, name: str, layer: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        self.layers[name] = layer
        tracer = self

        def make(fn):
            signature = inspect.signature(fn) if name in (PROPAGATE, ORACLE) else None

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                if signature is not None:
                    tracer._note(name, signature.bind(*args, **kwargs))
                stack = tracer.stack
                parent = stack[-1] if stack else -1
                idx = len(tracer.spans)
                span = [tracer.op, nid, 0.0, 0.0, parent]
                tracer.spans.append(span)
                stack.append(idx)
                span[2] = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    stack.pop()

            return wrapper
        return make

    def _count_wrapper(self, counter: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.counts[(tracer.op, counter)] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _note(self, name: str, bound) -> None:
        if name == PROPAGATE:
            a = bound.arguments
            self._alive.append(a["circuit"])
            self.distinct[self.op].add((id(a["circuit"]), a["label"], a["side"], a["pauli"]))
        else:
            bound.apply_defaults()
            self.counts[(self.op, "verification.oracle_faults")] += bound.arguments["n_faults"]

    def end_op(self) -> None:
        """Drop the circuits held for the finished op's distinct keys."""
        self.active = False
        self._alive.clear()

    # -- results ----------------------------------------------------------
    def layer_totals(self, scale: dict):
        """Per-layer busy and self seconds, call counts per name and per op.
        Each span's time is multiplied by ``scale[op]`` of its op."""
        spans = self.spans
        child = [0.0] * len(spans)
        ancestors: list[frozenset] = [frozenset()] * len(spans)
        busy: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        op_calls: Counter = Counter()
        for i, (op, nid, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (op, nid, t0, t1, parent) in enumerate(spans):
            name = self.names[nid]
            layer = self.layers[name]
            if parent >= 0:
                parent_layer = self.layers[self.names[spans[parent][1]]]
                ancestors[i] = ancestors[parent] | {parent_layer}
            k = scale[op]
            if layer not in ancestors[i]:
                busy[layer] += k * (t1 - t0)
            self_time[layer] += k * ((t1 - t0) - child[i])
            calls[name] += 1
            calls["layer:" + layer] += 1
            op_calls[(op, name)] += 1
        return busy, self_time, calls, op_calls

    def write(self, path) -> None:
        """Spans as gzip JSON: times in microseconds from tracer creation."""
        origin = self.t_origin
        payload = {
            "fields": ["op", "name", "start_us", "end_us", "parent"],
            "names": self.names,
            "layers": self.layers,
            "spans": [
                [op, nid, round((t0 - origin) * 1e6, 1), round((t1 - origin) * 1e6, 1), parent]
                for op, nid, t0, t1, parent in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
