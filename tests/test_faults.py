"""Fault enumeration against the reference decoding tables."""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forward_reference import count_locations_one_by_one, decode, flip_bits, propagate_fault, readout_masks
from golden_tables import X_PERFECT, X_TABLE, Z_PERFECT, Z_TABLE
from test_benchmark_contract import load_perfbench
from steanesim import depth as depth_module, faults as faults_module
from steanesim.builders import AUX_GADGETS, FLAG_GADGETS, build_full_ec_circuit
from steanesim.circuits import DATA_QUBITS, Circuit, Gate, parse, serialize
from steanesim.depth import count_fault_locations
from steanesim.faults import (
    FaultLocation,
    canonical_residual,
    check_flag_conditions,
    classify_collisions,
    derive_perfect_assumptions,
    enumerable_locations,
    fault_frames,
    fault_map,
    inject_and_propagate,
    ledger_covers,
    ledger_from_names,
    ledger_names,
    location_from_name,
    reconstruct_meta,
    view_table,
)
from steanesim.paulis import PauliOperator


@pytest.fixture(scope="module")
def data_flags_off():
    return build_full_ec_circuit(include_flags=False, block_kind="data")


@pytest.fixture(scope="module")
def data_flags_on():
    return build_full_ec_circuit(include_flags=True, block_kind="data")


@pytest.fixture(scope="module")
def aux_flags_on():
    return build_full_ec_circuit(include_flags=True, block_kind="aux")


def boxed_view(circuit: Circuit, view: str):
    """Classes with agreeing syndrome rounds, keyed the reference way."""
    out = {}
    for cls in classify_collisions(view_table(circuit, view)):
        sig = cls.signature
        if sig.agreed_z() is None or sig.agreed_x() is None:  # the rounds disagree
            continue
        syn = sig.agreed_z() if view == "X" else sig.agreed_x()
        meas_idx = (3, 4, 5) if view == "X" else (0, 1, 2)
        key = ("".join(map(str, syn)), "".join(str(sig.meas[i]) for i in meas_idx))
        assert key not in out, f"duplicate boxed key {key}"
        out[key] = cls
    return out


def flag_bits(sig) -> tuple[int, ...]:
    """A signature's flag parities, first gadget first: the low ``shape[3]`` bits of its word."""
    n = sig.shape[3]
    return tuple(sig.word >> (n - 1 - k) & 1 for k in range(n))


def canonical_name(circuit: Circuit, residual: PauliOperator) -> str:
    x, z = canonical_residual(circuit.layout, residual)
    return str(PauliOperator(7, x, z))


@pytest.mark.parametrize("view,golden", [("X", X_TABLE), ("Z", Z_TABLE)])
def test_flags_off_enumeration_reproduces_reference_table(data_flags_off, view, golden):
    classes = boxed_view(data_flags_off, view)
    seen_keys = set()
    for syn, meas, groups, color, no_error in golden:
        cls = classes[(syn, meas)]
        seen_keys.add((syn, meas))
        expected_members = {name for members, _ in groups for name in members}
        got_members = {loc.display_name() for loc, _ in cls.members}
        assert got_members == expected_members, f"{view} ({syn},{meas})"
        for members, residual in groups:
            for name in members:
                got = {canonical_name(data_flags_off, r)
                       for loc, r in cls.members if loc.display_name() == name}
                assert got == {residual}, f"{name} residual"
        assert cls.includes_no_error == no_error
        assert (cls.verdict == "ambiguous") == (color is not None), f"{view} ({syn},{meas})"
    # no boxed signatures beyond the reference rows
    assert set(classes) == seen_keys, f"unexpected {view} classes: {set(classes) - seen_keys}"


def test_spec_anchor_propagations(data_flags_off):
    # The boxed locations on syndrome-round gates are the final-copy faults;
    # first-copy faults surface as round disagreement instead.
    sig1, _ = inject_and_propagate(data_flags_off, "C25", "control", "X")
    assert sig1.agreed_z() is None
    sig, res = inject_and_propagate(data_flags_off, "C25.2", "control", "X")
    assert sig.agreed_z() == (0, 0, 0) and sig.agreed_x() == (0, 0, 0)
    assert tuple(sig.meas[i] for i in (3, 4, 5)) == (0, 0, 1)
    assert str(res) == "X7"

    sig, res = inject_and_propagate(data_flags_off, "C9", "target", "Z")
    assert sig.agreed_x() == (1, 0, 1)
    assert tuple(sig.meas[i] for i in (0, 1, 2)) == (1, 1, 1)
    assert canonical_name(data_flags_off, res) == "Z2Z3Z4"

    # a result-neutral location: X after the last fan-in on its wire
    sig, res = inject_and_propagate(data_flags_off, "C28", "control", "X")
    assert not any(any(bits) for bits in (*sig.z_syn, *sig.x_syn, sig.meas, flag_bits(sig)))  # no readout flipped
    assert canonical_residual(data_flags_off.layout, res) == (0, 0)


def test_x_fault_groups_under_nonzero_syndrome(data_flags_off):
    classes = boxed_view(data_flags_off, "X")
    cls = classes[("100", "011")]
    assert {loc.display_name() for loc, _ in cls.members} == {"X2^C", "X3^T", "X6^T", "X3^C", "X6^C", "X12^T"}
    assert {canonical_name(data_flags_off, r) for _, r in cls.members} == {"X1X6X7"}


def test_enumeration_is_deterministic(data_flags_off):
    def dump(circuit):
        faults_module._analysis.cache_clear()  # rebuild the map, not read the memo
        return [
            (str(e.signature), [(l.label, l.side, l.pauli, str(r)) for l, r in e.members])
            for view in ("X", "Y", "Z") for e in view_table(circuit, view).sorted_entries()
        ]
    assert dump(data_flags_off) == dump(data_flags_off)


def test_view_members_come_in_location_order(data_flags_on):
    # The map iterates in sort_key order, so no table re-sorts its members.
    for view in ("X", "Y", "Z"):
        for entry in view_table(data_flags_on, view).sorted_entries():
            locs = [loc for loc, _ in entry.members]
            assert locs == sorted(locs, key=FaultLocation.sort_key)


def test_y_faults_propagate_as_x_and_z(data_flags_off):
    sig_y, res_y = inject_and_propagate(data_flags_off, "C20", "control", "Y")
    sig_x, res_x = inject_and_propagate(data_flags_off, "C20", "control", "X")
    sig_z, res_z = inject_and_propagate(data_flags_off, "C20", "control", "Z")
    assert res_y == PauliOperator(7, res_x.x_bits ^ res_z.x_bits, res_x.z_bits ^ res_z.z_bits)
    assert sig_y.meas == tuple(a ^ b for a, b in zip(sig_x.meas, sig_z.meas))


def test_empty_circuit_enumerates_nothing():
    assert fault_map(Circuit(7)) == {}


def test_unknown_gate_label_raises(data_flags_off):
    with pytest.raises(KeyError):
        inject_and_propagate(data_flags_off, "C99", "control", "X")


def test_flags_split_the_cyan_classes(data_flags_on):
    # X22^C and X26^C fire the CN7/CN8 gadget; their former partners do not.
    for flagged, partner in [("C22.2", "C29"), ("C26", "C21")]:
        sig_f, _ = inject_and_propagate(data_flags_on, flagged, "control", "X")
        sig_p, _ = inject_and_propagate(data_flags_on, partner, "control", "X")
        assert any(flag_bits(sig_f)), flagged
        assert sig_f != sig_p


def test_perfect_assumption_ledgers(data_flags_on, aux_flags_on):
    x_ledger = derive_perfect_assumptions(view_table(data_flags_on, "X"))
    assert ledger_names(x_ledger) == sorted(X_PERFECT)
    z_ledger = derive_perfect_assumptions(view_table(data_flags_on, "Z"))
    assert set(ledger_names(z_ledger)) == set(Z_PERFECT)
    assert len(z_ledger) == 11
    assert derive_perfect_assumptions(view_table(aux_flags_on, "X")) == frozenset()


def test_flagged_tables_have_no_ambiguity_under_ledgers(data_flags_on):
    x_ledger = ledger_from_names(X_PERFECT)
    z_ledger = ledger_from_names(Z_PERFECT)
    for view, ledger in (("X", x_ledger), ("Z", z_ledger)):
        classes = classify_collisions(view_table(data_flags_on, view), ledger)
        assert [c for c in classes if c.verdict == "ambiguous"] == []


def test_flags_off_ambiguous_classes_are_the_marked_rows(data_flags_off):
    for view, golden in (("X", X_TABLE), ("Z", Z_TABLE)):
        classes = boxed_view(data_flags_off, view)
        expected = {(syn, meas) for syn, meas, _, color, _ in golden if color is not None}
        got = {key for key, cls in classes.items() if cls.verdict == "ambiguous"}
        assert got == expected


def test_flag_conditions_all_pass(data_flags_on):
    reports = check_flag_conditions(
        data_flags_on, ledger_from_names(X_PERFECT), ledger_from_names(Z_PERFECT)
    )
    assert len(reports) == 8
    assert all(r.all_pass for r in reports)
    kinds = {r.gadget_id: r.kind for r in reports}
    assert all(kinds[g] == "X" for g in (1, 2, 3, 4))
    assert all(kinds[g] == "Z" for g in (5, 6, 7, 8))


def test_misplaced_gadget_fails_condition_two():
    # Ending the third gadget after C10 leaves the wire fault beyond it
    # colliding with the (110,110) class under a different residual.
    bad = build_full_ec_circuit(
        include_flags=True, block_kind="data",
        gadget_overrides={3: ("X", 4, ("CN5", "CN6"), ("C9", "C10"))},
    )
    reports = {r.gadget_id: r for r in check_flag_conditions(
        bad, ledger_from_names(X_PERFECT), ledger_from_names(Z_PERFECT))}
    assert not reports[3].condition2
    assert not reports[3].all_pass


def test_cn11_target_fault_matches_reference_claim(data_flags_on):
    sig, res = inject_and_propagate(data_flags_on, "CN11", "target", "Z")
    assert sig.agreed_x() == (0, 0, 0)
    assert tuple(sig.meas[i] for i in (0, 1, 2)) == (0, 1, 1)
    assert any(flag_bits(sig))


def test_ledger_covers_a_fault_by_its_own_leg_and_components():
    x_key, z_key, y_key = (location_from_name(f"{p}3^C") for p in "XZY")
    other_leg = frozenset({location_from_name("X3^T"), location_from_name("Z3^T")})
    x, y, z = (FaultLocation("C3", "control", p) for p in "XYZ")
    assert ledger_covers(frozenset({x_key}), y)
    assert ledger_covers(frozenset({z_key}), y)
    assert not ledger_covers(other_leg, y)
    assert ledger_covers(frozenset({x_key}), x) and not ledger_covers(frozenset({z_key, y_key}), x)
    assert ledger_covers(frozenset({z_key}), z) and not ledger_covers(frozenset({x_key, y_key}), z)
    # Every syndrome-round copy shares its gate's key.
    assert ledger_covers(frozenset({location_from_name("X22^C")}), FaultLocation("C22.2", "control", "Y"))


def test_record_hazards():
    # Mutable state is never shared between records: a fresh circuit holds
    # an empty gate tuple, which no append can reach.
    first, second = Circuit(3), Circuit(3)
    with pytest.raises(AttributeError):
        first.gates.append(Gate("H", (0,), "H1"))
    assert second.gates == () and Circuit(3, [*first.gates, Gate("H", (0,), "H1")]) != second
    # Validation still runs on every construction.
    with pytest.raises(ValueError, match="bit vectors exceed 2 qubits"):
        PauliOperator(2, 0b100)
    with pytest.raises(ValueError, match="bit vectors exceed 3 qubits"):
        PauliOperator(3, 0, 0b1000)
    # Records are tuples, so a location equals the plain ledger key of the
    # same fields; ledgers hold only such plain keys and are only probed
    # with them, so no set or mapping holds both.
    loc = FaultLocation("C22.2", "control", "X")
    assert loc == ("C22.2", "control", "X") and loc.ledger_key() == ("C22", "control", "X")
    assert type(loc.ledger_key()) is tuple
    assert all(type(key) is tuple for key in ledger_from_names(["X22^C", "ZH1"]))


def test_y_view_honours_the_union_ledger(data_flags_on):
    x_ledger = derive_perfect_assumptions(view_table(data_flags_on, "X"))
    z_ledger = derive_perfect_assumptions(view_table(data_flags_on, "Z"))
    covered_legs = {(label, side) for label, side, _ in x_ledger | z_ledger}
    table = view_table(data_flags_on, "Y")
    unfiltered = {loc for cls in classify_collisions(table) for loc, _ in cls.members}
    filtered = {loc for cls in classify_collisions(table, x_ledger | z_ledger) for loc, _ in cls.members}
    dropped = {loc for loc in unfiltered if loc.ledger_key()[:2] in covered_legs}
    assert dropped  # Y faults on legs the X or Z ledger assumes perfect
    assert filtered == unfiltered - dropped


def test_location_name_parsing_round_trips():
    for name in ("X22^C", "Z13^T", "ZH1", "XCN13^T"):
        label, side, pauli = location_from_name(name)
        assert FaultLocation(label, side, pauli).display_name() == name
    with pytest.raises(ValueError):
        location_from_name("X22")


def test_flag_gadget_wire_assignments():
    # Gadget wires recorded in the builder match the guarded fан-out wires.
    wires = {gid: spec[1] for gid, spec in FLAG_GADGETS.items()}
    assert wires == {1: 2, 2: 3, 3: 4, 4: 4, 5: 5, 6: 7, 7: 6, 8: 5}


# Every builder configuration that yields a whole cycle (a flagged one-round
# build cannot place gadgets 4 and 5), plus two non-default gadget tables.
BUILD_CONFIGS = {
    f"{block}-reps{reps}-{'xz' if x_first else 'zx'}-{'flags' if flags else 'noflags'}": dict(
        block_kind=block, syndrome_reps=reps, x_rounds_first=x_first, include_flags=flags
    )
    for block, reps, x_first, flags in itertools.product(("data", "aux"), (1, 2, 3), (True, False), (True, False))
    if not (flags and reps == 1)
}
BUILD_CONFIGS["misplaced-gadget3"] = dict(gadget_overrides={3: ("X", 4, ("CN5", "CN6"), ("C9", "C10"))})
BUILD_CONFIGS["z-type-gadget1"] = dict(gadget_overrides={1: ("Z", 5, ("CN1", "CN2"), ("C4", "C16.2"))})


GOLDEN_CONFIGS = Path(__file__).with_name("golden_configs.json")


def analysis_record(circuit: Circuit) -> dict:
    """Ledger names, depth profile, flag verdicts and one SHA-256 over every
    X/Y/Z class (signature, verdict, member names), in JSON form. The Y view
    is hashed without a ledger, the form ``propagate`` prints; its classes
    under the union ledger are checked against the depth profile by
    ``test_depth_tallies_the_members_of_each_view``."""
    x_ledger = derive_perfect_assumptions(view_table(circuit, "X"))
    z_ledger = derive_perfect_assumptions(view_table(circuit, "Z"))
    profile = count_fault_locations(circuit, x_ledger, z_ledger)
    verdicts = [
        [r.gadget_id, r.condition1, r.condition2, r.condition3]
        for r in check_flag_conditions(circuit, x_ledger, z_ledger)
    ]
    classes = hashlib.sha256()
    for view, ledger in (("X", x_ledger), ("Y", frozenset()), ("Z", z_ledger)):
        for cls in classify_collisions(view_table(circuit, view), ledger):
            members = ";".join(loc.display_name() for loc, _ in cls.members)
            classes.update(f"{view}|{cls.signature}|{cls.verdict}|{members}\n".encode())
    return {
        "perfect_x": ledger_names(x_ledger),
        "perfect_z": ledger_names(z_ledger),
        "profile": {"r_x": list(profile.r_x), "r_y": list(profile.r_y), "r_z": list(profile.r_z)},
        "flags": verdicts,
        "classes_sha256": classes.hexdigest(),
    }


def write_golden_configs() -> None:
    """Regenerate ``golden_configs.json``: ``PYTHONPATH=src:tests python tests/test_faults.py``."""
    rows = [
        f"{json.dumps(name)}: {json.dumps(analysis_record(build_full_ec_circuit(**kwargs)), sort_keys=True)}"
        for name, kwargs in BUILD_CONFIGS.items()
    ]
    GOLDEN_CONFIGS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")  # one line per configuration


@pytest.mark.parametrize("name", BUILD_CONFIGS)
def test_reconstructed_meta_matches_built_analysis(name):
    # Both circuits must give the analysis pinned for this configuration.
    kwargs = BUILD_CONFIGS[name]
    built = build_full_ec_circuit(**kwargs)
    reparsed = reconstruct_meta(parse(serialize(built)))
    layout = reparsed.layout
    assert layout == built.layout
    block = kwargs.get("block_kind", "data")
    assert layout.block == block
    assert layout.shape[:2] == (kwargs.get("syndrome_reps", 2),) * 2  # Z rounds, X rounds
    table = {**FLAG_GADGETS, **kwargs.get("gadget_overrides", {})}
    ids = (AUX_GADGETS if block == "aux" else tuple(table)) if kwargs.get("include_flags", True) else ()
    assert [(p.gadget_id, p.kind, p.wire + 1, p.cn_labels) for p in layout.gadgets] == [
        (gid, *table[gid][:3]) for gid in ids
    ]
    pinned = json.loads(GOLDEN_CONFIGS.read_text(encoding="utf-8"))[name]
    assert analysis_record(built) == pinned
    assert analysis_record(reparsed) == pinned


def reference_map(circuit: Circuit) -> dict:
    """Every fault of the map, walked forward and decoded bit by bit; Y is
    propagated directly here, while the map sums X and Z."""
    masks = readout_masks(circuit)
    return {
        FaultLocation(label, side, pauli): decode(circuit, masks, *propagate_fault(circuit, start, qubit, pauli))
        for start, label, side, qubit in enumerable_locations(circuit)
        for pauli in ("X", "Y", "Z")
    }


@pytest.mark.parametrize("kwargs", BUILD_CONFIGS.values(), ids=BUILD_CONFIGS.keys())
def test_fault_map_matches_single_fault_propagation(kwargs):
    circuit = build_full_ec_circuit(**kwargs)
    faults = fault_map(circuit)
    reference = reference_map(circuit)
    assert faults.keys() == reference.keys()
    for loc, (want, want_res) in reference.items():
        sig, res = faults[loc]
        got = (sig.z_syn, sig.x_syn, sig.meas, flag_bits(sig), str(sig), sig.agreed_x(), sig.agreed_z(), res)
        assert got == (want.z_syn, want.x_syn, want.meas, want.flags, str(want), want.agreed_x(), want.agreed_z(),
                       want_res), loc


@pytest.mark.parametrize("kwargs", BUILD_CONFIGS.values(), ids=BUILD_CONFIGS.keys())
def test_signature_words_sort_in_tuple_order(kwargs):
    # sorted_entries sorts by the packed word; the tables' row order is the
    # order of the (z_syn, x_syn, meas, flags) tuples.
    circuit = build_full_ec_circuit(**kwargs)
    faults = fault_map(circuit)
    reference = {loc: (s.z_syn, s.x_syn, s.meas, s.flags) for loc, (s, _) in reference_map(circuit).items()}
    assert sorted(faults, key=lambda loc: faults[loc][0].word) == sorted(faults, key=reference.__getitem__)
    words = {sig.word for sig, _ in faults.values()}
    assert len(words) == len(set(reference.values()))


@pytest.mark.parametrize("kwargs", BUILD_CONFIGS.values(), ids=BUILD_CONFIGS.keys())
def test_depth_tallies_the_members_of_each_view(kwargs):
    # r_t[q] counts the location-sides on qubit q with a member in the
    # classes of view t under ledger t (an aux block reports r_y = r_x and
    # no Z-type depth).
    circuit = build_full_ec_circuit(**kwargs)
    x_ledger = derive_perfect_assumptions(view_table(circuit, "X"))
    z_ledger = derive_perfect_assumptions(view_table(circuit, "Z"))
    profile = count_fault_locations(circuit, x_ledger, z_ledger)
    qubit = {(label, side): q for _, label, side, q in enumerable_locations(circuit)}
    tallies = {}
    for view, ledger in (("X", x_ledger), ("Y", x_ledger | z_ledger), ("Z", z_ledger)):
        legs = {(loc.label, loc.side) for cls in classify_collisions(view_table(circuit, view), ledger)
                for loc, _ in cls.members}
        tallies[view] = tuple(sum(qubit[leg] == q for leg in legs) for q in range(7))
    if circuit.layout.block == "aux":
        assert (profile.r_x, profile.r_y, profile.r_z) == (tallies["X"], tallies["X"], (0,) * 7)
    else:
        assert (profile.r_x, profile.r_y, profile.r_z) == (tallies["X"], tallies["Y"], tallies["Z"])


@pytest.mark.parametrize("kwargs", BUILD_CONFIGS.values(), ids=BUILD_CONFIGS.keys())
def test_depth_matches_the_location_by_location_count(kwargs):
    # The tally of class members against the membership rule asked at every
    # location-side and view, under the derived ledgers and under none.
    circuit = build_full_ec_circuit(**kwargs)
    x_ledger = derive_perfect_assumptions(view_table(circuit, "X"))
    z_ledger = derive_perfect_assumptions(view_table(circuit, "Z"))
    for ledgers in ((x_ledger, z_ledger), (frozenset(), frozenset())):
        assert count_fault_locations(circuit, *ledgers) == count_locations_one_by_one(circuit, *ledgers)


DEFAULT_CONFIG = "data-reps2-xz-flags"  # the configuration build_full_ec_circuit() builds


def permute_ancillas(circuit: Circuit, seed: int) -> Circuit:
    """The circuit with its non-data wires shuffled: new content, same analysis."""
    wires = list(range(len(DATA_QUBITS), circuit.n_qubits))
    perm = dict(zip(wires, random.Random(seed).sample(wires, len(wires))))
    gates = [Gate(g.kind, tuple(perm.get(q, q) for q in g.qubits), g.label) for g in circuit.gates]
    return reconstruct_meta(Circuit(circuit.n_qubits, gates))


def benchmark_analyse():
    """The variant-sweep op's analysis, as the benchmark's ``run.py`` defines it."""
    run_module = load_perfbench("run")
    run_module.depth, run_module.faults = depth_module, faults_module  # bound by the benchmark's main()
    return run_module.analyse


def test_memos_stay_bounded_over_distinct_circuits():
    # One slot holds the map and view tables of the last circuit, and after
    # the benchmark's analysis its tables hold exactly the classes it asked for.
    analyse = benchmark_analyse()
    pinned = json.loads(GOLDEN_CONFIGS.read_text(encoding="utf-8"))[DEFAULT_CONFIG]
    circuits = [permute_ancillas(build_full_ec_circuit(), seed) for seed in range(20)]
    assert len({tuple(c.gates) for c in circuits}) == 20
    legs = []
    for circuit in circuits:
        x_ledger, z_ledger, *_ = analyse(circuit)
        held = {view: set(view_table(circuit, view).classes) for view in "XYZ"}
        assert held == {"X": {frozenset(), x_ledger}, "Y": {x_ledger | z_ledger}, "Z": {frozenset(), z_ledger}}
        assert analysis_record(circuit) == pinned
        legs.append(faults_module._legs.cache_info().currsize)
    info = faults_module._analysis.cache_info()
    assert info.maxsize == info.currsize == 1
    # The interned legs are bounded by the labels, not the circuits, and two
    # circuits' maps hold the same location records.
    assert legs == legs[:1] * len(circuits)
    first, last = fault_map(circuits[0]), dict(fault_map(circuits[-1]))
    assert len(first) == len(last) == 330 and all(a is b for a, b in zip(first, last))
    faults_module._legs.cache_clear()
    faults_module._analysis.cache_clear()
    assert dict(fault_map(circuits[-1])) == last


def test_an_analysis_makes_at_most_nine_memo_lookups():
    analyse = benchmark_analyse()
    circuit = permute_ancillas(build_full_ec_circuit(), 20)
    before = faults_module._analysis.cache_info()
    analyse(circuit)
    after = faults_module._analysis.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits + after.misses - before.hits - before.misses <= 9


def test_a_held_table_classifies_without_a_second_sweep(monkeypatch, aux_flags_on):
    # The table keeps its own classes: a ledger it has not seen is classified
    # from its entries, even after the memo has moved on to another circuit.
    circuit = permute_ancillas(build_full_ec_circuit(), 21)  # content no other test analyses
    table = view_table(circuit, "X")
    ledger = derive_perfect_assumptions(table)
    view_table(aux_flags_on, "X")  # the memo moves on
    sweeps, sweep = [], faults_module.fault_frames
    monkeypatch.setattr(faults_module, "fault_frames", lambda *args: sweeps.append(args) or sweep(*args))
    classes = classify_collisions(table, ledger)
    assert sweeps == []
    monkeypatch.undo()
    assert classes == classify_collisions(view_table(build_full_ec_circuit(), "X"), ledger)


def test_returned_tables_and_classes_do_not_poison_the_memo():
    # A view table's entries and a class are read-only records, and the class
    # list is the caller's own: no mutation reaches the next analysis.
    pinned = json.loads(GOLDEN_CONFIGS.read_text(encoding="utf-8"))[DEFAULT_CONFIG]
    circuit = build_full_ec_circuit()
    table = view_table(circuit, "X")
    classes = classify_collisions(table, derive_perfect_assumptions(table))
    entry = next(iter(table.entries.values()))
    cls = next(c for c in classes if c.members)
    loc, res = cls.members[0]
    with pytest.raises(TypeError):
        table.entries[entry.signature] = entry
    with pytest.raises(AttributeError):
        entry.members.append((loc, res))
    with pytest.raises(AttributeError):
        cls.members.clear()
    with pytest.raises(AttributeError):
        cls.residual_groups[0][1].append(loc)
    with pytest.raises(AttributeError):
        table.entries = {}
    classes.clear()
    assert analysis_record(circuit) == pinned


def test_a_table_keeps_its_classes_after_its_circuit_is_edited():
    # A table carries the memo key of its own content, and a circuit is
    # never edited, so a circuit built from edited gates reaches neither its
    # entries nor its classes.
    circuit = build_full_ec_circuit(include_flags=False)
    table = view_table(circuit, "X")
    with pytest.raises(AttributeError):
        circuit.gates.append(Gate("H", (0,), "G999"))
    circuit = Circuit(circuit.n_qubits, [*circuit.gates, Gate("H", (0,), "G999")])  # qubit 1 is never read out: residuals change
    faults_module._analysis.cache_clear()
    classes = classify_collisions(table)
    assert classes == classify_collisions(view_table(build_full_ec_circuit(include_flags=False), "X"))
    assert classes != classify_collisions(view_table(circuit, "X"))
    assert table.entries == view_table(build_full_ec_circuit(include_flags=False), "X").entries


SWEEP_WIRES = 4
ONE_QUBIT_GATES = ("H", "S", "SDG", "X", "Y", "Z", "MZ", "MX", "PREP0", "PREPP")
SWEEP_GATE = st.one_of(
    st.tuples(st.sampled_from(ONE_QUBIT_GATES), st.integers(0, SWEEP_WIRES - 1).map(lambda q: (q,))),
    st.tuples(
        st.sampled_from(("CNOT", "CAT2")),
        st.permutations(range(SWEEP_WIRES)).map(lambda p: tuple(p[:2])),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(SWEEP_GATE, min_size=1, max_size=14), st.data())
def test_backward_sweep_matches_forward_propagation(gates, data):
    # Every gate kind the frame rule knows, including S, SDG and the Paulis
    # that no built cycle contains; locations on any wire after any gate.
    circuit = Circuit(SWEEP_WIRES, [Gate(kind, qubits, f"G{i}") for i, (kind, qubits) in enumerate(gates)])
    pairs = st.tuples(st.integers(0, len(gates) - 1), st.integers(0, SWEEP_WIRES - 1))
    locations = [(start, f"G{start}", "single", qubit) for start, qubit in data.draw(st.lists(pairs, min_size=1))]
    frames = fault_frames(circuit, locations, flip_bits(circuit))
    for (start, _, _, qubit), (x_frame, y_frame, z_frame) in zip(locations, frames):
        assert x_frame == propagate_fault(circuit, start, qubit, "X")
        assert y_frame == propagate_fault(circuit, start, qubit, "Y")
        assert z_frame == propagate_fault(circuit, start, qubit, "Z")


def test_backward_sweep_rejects_t_after_the_first_location():
    circuit = Circuit(2, [Gate("H", (0,), "G0"), Gate("T", (0,), "G1"), Gate("CNOT", (0, 1), "G2")])
    with pytest.raises(ValueError):
        propagate_fault(circuit, 0, 0, "X")
    with pytest.raises(ValueError):
        fault_frames(circuit, [(0, "G0", "single", 0)], {})
    # A T before every location is never stepped over, forward or backward.
    [(x_frame, y_frame, z_frame)] = fault_frames(circuit, [(1, "G1", "single", 0)], {})
    assert x_frame == propagate_fault(circuit, 1, 0, "X")
    assert y_frame == propagate_fault(circuit, 1, 0, "Y")
    assert z_frame == propagate_fault(circuit, 1, 0, "Z")


def test_a_stray_wire_number_widens_no_word():
    # A headerless file with one X on wire 10^6: the frames equal those
    # without it, and the sweep's memory does not follow the wire number.
    text = "".join(line for line in serialize(build_full_ec_circuit()).splitlines(keepends=True)
                   if not line.startswith("# qubits"))
    frames = []
    for body in (text, text + "XS X 1000000\n"):
        circuit = reconstruct_meta(parse(body))
        locations = enumerable_locations(circuit)
        tracemalloc.start()
        try:
            frames.append(fault_frames(circuit, locations, dict(circuit.layout.feeds)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # about 70 KB; words spanning all 10^6 wire numbers take about 77 MB
    assert circuit.n_qubits == 1_000_000
    assert frames[0] == frames[1]


def test_a_used_wire_past_a_gap_keeps_its_bit():
    # Words index the used wires densely; each frame is read back on wire numbers.
    far = 10**6
    circuit = Circuit(far + 1, [Gate("H", (0,), "G0"), Gate("CNOT", (0, far), "G1"), Gate("MZ", (far,), "M")])
    [frames] = fault_frames(circuit, [(0, "G0", "single", 0)], {"M": 1})
    assert frames == ((1 | 1 << far, 0, 1), (1 | 1 << far, 1, 1), (0, 1, 0))


def test_fault_map_follows_edits_of_a_circuit():
    circuit = build_full_ec_circuit(include_flags=False)
    before = dict(fault_map(circuit))
    i = next(i for i, g in enumerate(circuit.gates) if g.label == "C5")
    reversed_c5 = Gate("CNOT", circuit.gates[i].qubits[::-1], "C5")
    with pytest.raises(TypeError):
        circuit.gates[i] = reversed_c5
    circuit = Circuit(circuit.n_qubits, [*circuit.gates[:i], reversed_c5, *circuit.gates[i + 1:]])
    replaced = dict(fault_map(circuit))
    with pytest.raises(AttributeError):
        circuit.gates.append(Gate("H", (0,), "G999"))
    circuit = Circuit(circuit.n_qubits, [*circuit.gates, Gate("H", (0,), "G999")])  # qubit 1 is never read out: residuals change
    appended = dict(fault_map(circuit))
    assert before != replaced != appended
    faults_module._analysis.cache_clear()
    fresh = Circuit(circuit.n_qubits, list(circuit.gates))
    assert dict(fault_map(fresh)) == appended
    with pytest.raises(TypeError):
        del fresh.gates[-1]
    fresh = Circuit(fresh.n_qubits, fresh.gates[:-1])
    assert dict(fault_map(fresh)) == replaced


def test_a_wire_edit_in_place_moves_the_layout_with_the_gates():
    # Moving H4 from qubit 2 to qubit 5 changes which qubits are read in the X basis.
    circuit = build_full_ec_circuit()
    i = next(i for i, g in enumerate(circuit.gates) if g.label == "H4")
    assert circuit.gates[i].qubits == (1,)
    fault_map(circuit)  # the memo and the layout read hold the unedited cycle
    with pytest.raises(TypeError):
        circuit.gates[i] = Gate("H", (4,), "H4")
    circuit = Circuit(circuit.n_qubits, [*circuit.gates[:i], Gate("H", (4,), "H4"), *circuit.gates[i + 1:]])
    edited = dict(fault_map(circuit))
    faults_module._analysis.cache_clear()
    assert edited == dict(fault_map(reconstruct_meta(parse(serialize(circuit)))))
    assert circuit.layout.swap == build_full_ec_circuit().layout.swap ^ 0b10010


def test_a_deleted_gadget_gate_is_refused_by_every_analysis():
    circuit = build_full_ec_circuit()
    x_ledger, z_ledger = (derive_perfect_assumptions(view_table(circuit, view)) for view in "XZ")
    assert check_flag_conditions(circuit, x_ledger, z_ledger)
    i = next(i for i, g in enumerate(circuit.gates) if g.label == "CN7")
    with pytest.raises(TypeError):
        del circuit.gates[i]
    circuit = Circuit(circuit.n_qubits, circuit.gates[:i] + circuit.gates[i + 1:])
    with pytest.raises(ValueError, match="^flag gadget 4: CN7 missing$"):
        check_flag_conditions(circuit, x_ledger, z_ledger)
    with pytest.raises(ValueError, match="^flag gadget 4: CN7 missing$"):
        count_fault_locations(circuit, x_ledger, z_ledger)


def test_a_parsed_cycle_needs_no_reconstruct_meta():
    text = serialize(build_full_ec_circuit())
    bare = {view: view_table(parse(text), view).sorted_entries() for view in "XYZ"}
    faults_module._analysis.cache_clear()
    assert bare == {view: view_table(reconstruct_meta(parse(text)), view).sorted_entries() for view in "XYZ"}


@pytest.mark.parametrize("read", [lambda c: c, lambda c: parse(serialize(c))], ids=["built", "parsed"])
def test_faults_outside_a_cycle_name_the_missing_couplings(read):
    from steanesim.builders import build_encoder

    with pytest.raises(ValueError, match="C12/C19 missing"):
        fault_map(read(build_encoder()))


def test_a_bad_gadget_override_is_refused_at_build():
    with pytest.raises(ValueError, match="^flag gadget 1: CN1/CN2 must couple one data wire to flag qubits$"):
        build_full_ec_circuit(gadget_overrides={1: ("X", 9, ("CN1", "CN2"), ("C3", "C5"))})


def test_alternating_circuits_get_their_own_maps(data_flags_on, aux_flags_on):
    data_map, aux_map = dict(fault_map(data_flags_on)), dict(fault_map(aux_flags_on))
    assert data_map != aux_map
    for _ in range(2):
        assert fault_map(data_flags_on) == data_map
        assert fault_map(aux_flags_on) == aux_map


def test_fault_map_is_read_only(data_flags_on):
    faults = fault_map(data_flags_on)
    loc = next(iter(faults))
    with pytest.raises(TypeError):
        faults[loc] = faults[loc]
    with pytest.raises(TypeError):
        del faults[loc]


def test_unflagged_cycle_skips_the_flag_audit(data_flags_on, data_flags_off):
    fault_map(data_flags_on)  # the memo holds another circuit's map
    misses = faults_module._analysis.cache_info().misses
    assert check_flag_conditions(data_flags_off) == []
    assert faults_module._analysis.cache_info().misses == misses


def test_reconstruct_meta_rejects_non_ec_circuits():
    from steanesim.builders import build_cat_state

    with pytest.raises(ValueError, match="encode/decode"):
        reconstruct_meta(build_cat_state())


def test_flag_leg_faults_enumerated_but_not_classified(data_flags_on):
    flag_legs = data_flags_on.layout.flag_legs
    table = view_table(data_flags_on, "X")
    legs = [
        loc for e in table.entries.values() for loc, _ in e.members
        if (loc.label, loc.side) in flag_legs
    ]
    assert len(legs) == 16  # one flag leg per CN gate
    classified = {
        loc.display_name()
        for cls in classify_collisions(table)
        for loc, _ in cls.members
    }
    assert not any(loc.ledger_key()[:2] in flag_legs for loc in legs if loc.display_name() in classified)


def test_flag_legs_follow_the_layout_not_the_numbering():
    # A Z-type gadget under CN1/CN2 couples flag->wire: its flag legs are the
    # controls, and the wire legs (targets, on qubit 5) are classified.
    circuit = build_full_ec_circuit(**BUILD_CONFIGS["z-type-gadget1"])
    assert ("CN1", "control") in circuit.layout.flag_legs
    assert ("CN1", "target") not in circuit.layout.flag_legs
    classified = {
        loc.display_name()
        for cls in classify_collisions(view_table(circuit, "X"))
        for loc, _ in cls.members
    }
    assert {"XCN1^T", "XCN2^T"} <= classified
    assert not {"XCN1^C", "XCN2^C"} & classified


@pytest.mark.parametrize("block", ["data", "aux"])
@pytest.mark.parametrize("x_first", [True, False])
def test_half_gadget_is_rejected_by_builder_and_parser(block, x_first):
    # With one syndrome round the anchor C22.2 of CN7 does not exist.
    with pytest.raises(ValueError, match=r"flag gadget 4: anchor C22\.2 is not built with syndrome_reps=1$"):
        build_full_ec_circuit(block_kind=block, syndrome_reps=1, x_rounds_first=x_first)
    text = serialize(build_full_ec_circuit(block_kind=block, x_rounds_first=x_first))
    without_cn7 = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("CN7 "))
    with pytest.raises(ValueError, match="flag gadget 4: CN7 missing"):
        reconstruct_meta(parse(without_cn7))


def test_gadget_without_anchors_is_rejected():
    with pytest.raises(ValueError, match="flag gadget 1: anchor C99 is not built with syndrome_reps=2$"):
        build_full_ec_circuit(gadget_overrides={1: ("X", 2, ("CN1", "CN2"), ("C99", "C98"))})


CYCLE_LINES = serialize(build_full_ec_circuit()).splitlines()
LINE_EDIT = st.tuples(
    st.sampled_from(("delete", "duplicate", "swap")),
    st.integers(0, len(CYCLE_LINES) - 1),
    st.integers(0, len(CYCLE_LINES) - 1),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(LINE_EDIT, min_size=1, max_size=4))
def test_edited_cycle_text_parses_or_raises_value_error(edits):
    lines = list(CYCLE_LINES)
    for op, i, j in edits:
        i, j = i % len(lines), j % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    try:
        circuit = reconstruct_meta(parse("\n".join(lines)))
    except ValueError:
        return
    assert circuit.layout is not None


if __name__ == "__main__":
    write_golden_configs()
