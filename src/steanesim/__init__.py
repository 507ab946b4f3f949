"""Fault-tolerant Steane-code encode/decode analysis toolkit."""

from .paulis import PauliOperator
from .circuits import Circuit, Gate, parse, serialize
from .builders import (
    GadgetSpec,
    build_encoder,
    build_decoder,
    build_full_ec_circuit,
    build_gadget,
)
from .faults import (
    DecodingTable,
    FaultLocation,
    MeasurementSignature,
    check_flag_conditions,
    classify_collisions,
    derive_perfect_assumptions,
    fault_map,
    view_table,
)
from .depth import BlockDepth, DepthProfile, count_fault_locations, effective_R
from .threshold import ThresholdResult, coefficient_c, expand_levels, optimize_x, p_th
from .resources import check_permitted_depth, cnot_count, estimate_runtime

__version__ = "0.1.0"
