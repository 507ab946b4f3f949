"""Exhaustive single-fault injection through the encode/decode cycle.

A fault on a gate acts after the gate executes (a faulty gate is modeled as
the perfect gate followed by a Pauli on one of its output legs). Each fault
is propagated as a Pauli frame to every measurement; the resulting
signature combines both repetitions of each syndrome type, the terminal
redundant-qubit readout, and one parity bit per flag gadget.

One fault map per circuit (:func:`fault_map`) feeds the views, ledgers,
depth counts and flag audit. Propagation and signature bits are linear over
GF(2), so one backward sweep over the gates (:func:`fault_frames`) gives the
X, Y and Z frames and packed signature words of every location-side at
once; it is the package's one propagation engine. One memo, keyed by the
gate tuple, holds the map and its three view tables, and each table keeps
its classes per ledger, so the analyses of one circuit share them.

Enumerated locations are the data-block legs of the labeled CNOTs C1-C36
(ancilla legs of the syndrome couplings belong to the ancilla block's own
analysis), the Hadamards H1-H6, and both legs of the flag CNOTs CN1-CN16.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from functools import cache, lru_cache
from types import MappingProxyType

from .circuits import DATA_QUBITS, MEASURE_KINDS, PREP_KINDS, Circuit, CycleLayout, Gate, base_label, layout_of
from .paulis import PauliOperator, conjugate_bits

_LOC_RE = re.compile(r"^(C|CN|H)(\d+)(?:\.(\d+))?$")


class FaultLocation(namedtuple("FaultLocation", ("label", "side", "pauli"))):
    """One fault location-side: gate label (with round-copy suffix), leg, Pauli.
    Fields: ``label``, ``side`` ("control" | "target" | "single") and
    ``pauli`` ("X" | "Y" | "Z"), all str."""

    __slots__ = ()

    def display_name(self) -> str:
        """Copy-collapsed display name: X22^C, Z_H1 -> ZH1, XCN7^C."""
        kind, num, _ = _split_label(self.label)
        if kind == "H":
            return f"{self.pauli}H{num}"
        suffix = "^C" if self.side == "control" else "^T"
        prefix = "CN" if kind == "CN" else ""
        return f"{self.pauli}{prefix}{num}{suffix}"

    def ledger_key(self) -> tuple[str, str, str]:
        """Copy-collapsed key used by perfect-operation ledgers."""
        return (base_label(self.label), self.side, self.pauli)

    def sort_key(self):
        kind, num, copy = _split_label(self.label)
        return (kind, num, copy, self.side, self.pauli)


@cache  # labels repeat across circuits: each is parsed once
def _split_label(label: str) -> tuple[str, int, int]:
    m = _LOC_RE.match(label)
    if not m:
        raise ValueError(f"not an enumerable gate label: {label!r}")
    return m.group(1), int(m.group(2)), int(m.group(3) or 1)


def location_from_name(name: str) -> tuple[str, str, str]:
    """Parse a display name like ``X22^C``/``ZH1``/``XCN13^T`` to a ledger key."""
    m = re.match(r"^([XYZ])(CN|H)?(\d+)(?:\^([CT]))?$", name)
    if not m:
        raise ValueError(f"bad location name {name!r}")
    pauli, kind, num, side = m.group(1), m.group(2) or "C", m.group(3), m.group(4)
    if kind == "H":
        return (f"H{num}", "single", pauli)
    if side is None:
        raise ValueError(f"CNOT location {name!r} needs ^C or ^T")
    return (f"{kind}{num}", "control" if side == "C" else "target", pauli)


class MeasurementSignature(namedtuple("MeasurementSignature", ("word", "shape"))):
    """Deterministic flip pattern of every readout relative to a clean run.

    The pattern is one packed word, read most significant bit first: a
    triple per Z-stabilizer round, a triple per X-stabilizer round, the
    terminal data readout in qubit order, then one parity bit per flag
    gadget. ``shape`` counts those four parts, so integer order of the
    word is the order of the ``(z_syn, x_syn, meas, flags)`` tuples, and
    the clean run is word 0.
    Fields: ``word`` int; ``shape`` tuple[int, int, int, int] (Z rounds,
    X rounds, terminal readouts, flag gadgets).
    """

    __slots__ = ()

    def _parts(self) -> tuple[list[str], list[str], str, str]:
        n_z, n_x, n_meas, n_flags = self.shape
        syn = 3 * (n_z + n_x)
        bits = format(self.word, "b").zfill(syn + n_meas + n_flags)
        rounds = [bits[i:i + 3] for i in range(0, syn, 3)]
        return rounds[:n_z], rounds[n_z:], bits[syn:syn + n_meas], bits[syn + n_meas:]

    @property
    def z_syn(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(tuple(map(int, t)) for t in self._parts()[0])

    @property
    def x_syn(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(tuple(map(int, t)) for t in self._parts()[1])

    @property
    def meas(self) -> tuple[int, ...]:
        return tuple(map(int, self._parts()[2]))

    def agreed_z(self) -> tuple[int, int, int] | None:
        return self.z_syn[0] if len(set(self.z_syn)) == 1 else None

    def agreed_x(self) -> tuple[int, int, int] | None:
        return self.x_syn[0] if len(set(self.x_syn)) == 1 else None

    def __str__(self) -> str:
        zs, xs, ms, fs = self._parts()
        out = f"zSyn={'/'.join(zs)} xSyn={'/'.join(xs)} meas={ms}"
        return out + (f" flags={fs}" if fs else "")


# signature: MeasurementSignature; members: tuple[tuple[FaultLocation, PauliOperator], ...]
TableEntry = namedtuple("TableEntry", ("signature", "members"))


class DecodingTable(namedtuple("DecodingTable", ("layout", "entries", "classes"))):
    """Map from measurement signature to the faults that produce it: one
    view of a circuit, as :func:`view_table` memoizes it with the map.
    ``classes`` holds the table's classes per ledger, filled by
    :func:`classify_collisions` on first use, so a held table keeps the
    classes of its own content after the memo moves on.
    Fields: ``layout`` CycleLayout; ``entries``
    Mapping[MeasurementSignature, TableEntry]; ``classes``
    dict[PerfectOpLedger, tuple[CollisionClass, ...]]."""

    __slots__ = ()

    def sorted_entries(self) -> list[TableEntry]:
        """Entries in signature order, as the view stores them. Members keep the
        order of :func:`fault_map`, which is :meth:`FaultLocation.sort_key` order."""
        return list(self.entries.values())


def enumerable_locations(circuit: Circuit) -> list[tuple[int, str, str, int]]:
    """(gate index, label, side, qubit) for every fault leg: the data-block
    legs of the CNOTs and Hadamards, and both legs of each flag CNOT (its
    flag-qubit leg is audited by the gadget condition checks, never
    classified)."""
    out = []
    for idx, g in enumerate(circuit.gates):
        if g.kind == "CNOT":
            out += [(idx, g.label, side, q) for side, q in zip(("control", "target"), g.qubits)
                    if q in DATA_QUBITS or g.label.startswith("CN")]
        elif g.kind == "H" and g.label.startswith("H"):
            out.append((idx, g.label, "single", g.qubits[0]))
    return out


def fault_frames(circuit: Circuit, locations, readouts: Mapping[str, int]):
    """Frames of an X, a Y and a Z fault at each ``(gate index, label, side,
    qubit)`` location; the fault acts on wire ``qubit`` right after the gate.

    A frame is ``(x, z, word)``: the fault's X and Z bit words over the
    wires at circuit end, and the sum of ``readouts[label]`` over the
    readouts it flips (a Z readout flips on an X component, an X readout on
    a Z component; a readout ``readouts`` lacks adds nothing).

    One backward sweep over the gates keeps, for every wire a gate or a
    location uses, the end-of-circuit effect of an X and of a Z injected at
    the current point, packed into one int (X word, Z word, then the word).
    The X and Z words index the used wires by rank, so a wire number no gate
    uses widens no word, and each frame is read back on wire numbers.
    Stepping back over a gate sums, for each of its qubits' X and Z, the
    effects of its image under :func:`conjugate_bits`; an ``MZ``/``MX``
    adds its readout's word to the X/Z effect of its wire; preparations are
    skipped, since they precede every labeled gate. A location reads its
    wire's pair when the sweep reaches its gate index, and Y is their sum.
    The sweep stops at the first location, so a gate the frame rule rejects
    (``T``) raises only when it follows a location.
    """
    if not locations:
        return []
    gates = circuit.gates
    # When the used wires are 0..w-1, rank is wire and nothing is mapped back.
    wire_of = sorted({q for g in gates for q in g.qubits} | {loc[3] for loc in locations})
    width = len(wire_of)
    wires, shift = (1 << width) - 1, 2 * width
    x_eff = {w: 1 << r for r, w in enumerate(wire_of)}
    z_eff = {w: 1 << (width + r) for r, w in enumerate(wire_of)}
    at: dict[int, list[int]] = {}
    for pos, (start, *_) in enumerate(locations):
        at.setdefault(start, []).append(pos)
    first = min(at)
    out = [None] * len(locations)
    for i in range(len(gates) - 1, first - 1, -1):
        for pos in at.get(i, ()):
            q = locations[pos][3]
            vx, vz = x_eff[q], z_eff[q]
            xx, xz, xw = vx & wires, (vx >> width) & wires, vx >> shift
            zx, zz, zw = vz & wires, (vz >> width) & wires, vz >> shift
            out[pos] = ((xx, xz, xw), (xx ^ zx, xz ^ zz, xw ^ zw), (zx, zz, zw))
        if i == first:
            break
        g = gates[i]
        if g.kind in MEASURE_KINDS:
            read = readouts.get(g.label, 0) << shift
            (x_eff if g.kind == "MZ" else z_eff)[g.qubits[0]] ^= read
        elif g.kind not in PREP_KINDS:
            # Before the gate, a Pauli has the effect its image has after it.
            after = []
            for q in g.qubits:
                after.append(x_eff[q])
                after.append(z_eff[q])
            for q, (x_image, z_image) in zip(g.qubits, _images(g.kind, len(g.qubits))):
                vx, vz = 0, 0
                for k in x_image:
                    vx ^= after[k]
                for k in z_image:
                    vz ^= after[k]
                x_eff[q], z_eff[q] = vx, vz
    if wire_of[-1] >= width:  # map each rank bit back to its wire
        def spread(bits: int) -> int:
            return sum(1 << w for r, w in enumerate(wire_of) if bits >> r & 1)
        out = [tuple((spread(x), spread(z), word) for x, z, word in frames) for frames in out]
    return out


@lru_cache(maxsize=None)
def _images(kind: str, arity: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per operand ``j`` of a gate, the images of X_j and Z_j through it
    (:func:`conjugate_bits`), each as the positions of its factors in
    ``(X_0, Z_0, X_1, Z_1, ...)``."""
    operands = tuple(range(arity))

    def factors(x: int, z: int) -> tuple[int, ...]:
        x, z = conjugate_bits(kind, operands, x, z)
        return tuple(k for j in operands for k, bits in ((2 * j, x), (2 * j + 1, z)) if bits >> j & 1)

    return tuple((factors(1 << j, 0), factors(0, 1 << j)) for j in operands)


FaultMap = Mapping[FaultLocation, tuple[MeasurementSignature, PauliOperator]]


def fault_map(circuit: Circuit) -> FaultMap:
    """Signature and residual of X, Y and Z faults on every enumerable
    location-side, flag legs included, as a read-only mapping.

    One backward sweep (:func:`fault_frames`) gives the frames; in it each
    readout adds the signature bits it feeds (``CycleLayout.feeds``), so
    every entry reads its packed signature word with no decode. The map iterates in
    :meth:`FaultLocation.sort_key` order, so a view's members are added
    already sorted. It is memoized by the gate tuple, which also gives the
    layout, with the circuit's view tables, so the analyses of one circuit
    share one map, and a circuit changed after a call gets the map of its
    new content. Faults in a circuit that is not a cycle raise ValueError.
    """
    return _analysis(tuple(circuit.gates))[0]


@lru_cache(maxsize=1)
def _analysis(gates: tuple[Gate, ...]) -> tuple[FaultMap, dict[str, DecodingTable]]:
    """The fault map of one gate tuple and its X, Y and Z view tables.
    One loop fills both, since the views partition the map (``_VIEW_OF``);
    each view is stored in signature-word order."""
    circuit = Circuit(0, gates)  # no wire count: the leg rule and the sweep read only the gates
    locations = enumerable_locations(circuit)
    layout = layout_of(gates) if locations else None  # a circuit without faults needs no layout
    out = {}
    grouped: dict[str, dict[int, list]] = {view: {} for view in _HADAMARD_PAULIS}
    # Entries that share a signature or a residual share one object.
    signatures: dict[int, MeasurementSignature] = {}
    residuals: dict[tuple[int, int], PauliOperator] = {}
    if locations:
        shape, swap = layout.shape, layout.swap
        # Residuals are reported in the pre-decode-Hadamard frame (an X left
        # after a decode-side H is the same observable as a Z before it): one
        # masked swap of the X and Z bits of the ``swap`` qubits.
        block = (1 << len(DATA_QUBITS)) - 1
        frames = fault_frames(circuit, locations, dict(layout.feeds))
        # Sorting by the legs' keys once gives FaultLocation.sort_key order, as X < Y < Z.
        located = sorted(zip([_legs(label, side) for _, label, side, _ in locations], frames),
                         key=lambda item: item[0][0])
        for (_, leg), leg_frames in located:
            for (loc, view), (x, z, word) in zip(leg, leg_frames):
                # A record is a non-empty tuple, so ``or`` makes one only on a miss.
                sig = signatures.get(word) or signatures.setdefault(word, MeasurementSignature(word, shape))
                d = (x ^ z) & swap
                bits = (x ^ d) & block, (z ^ d) & block
                res = residuals.get(bits) or residuals.setdefault(bits, PauliOperator(len(DATA_QUBITS), *bits))
                out[loc] = sig, res
                members = grouped[view].get(word)
                if members is None:
                    members = grouped[view][word] = []
                members.append((loc, res))
    tables = {view: DecodingTable(layout, MappingProxyType({
                  signatures[word]: TableEntry(signatures[word], tuple(members))
                  for word, members in sorted(groups.items())}), {})
              for view, groups in grouped.items()}
    return MappingProxyType(out), tables


@cache  # bounded by the label vocabulary, as _split_label; the records are immutable, so circuits share them
def _legs(label: str, side: str) -> tuple[tuple, tuple[tuple[FaultLocation, str], ...]]:
    """A location-side's sort key and its X, Y and Z ``(FaultLocation, view)`` pairs."""
    return (*_split_label(label), side), tuple((FaultLocation(label, side, pauli), _VIEW_OF[side, pauli])
                                               for pauli in "XYZ")


def inject_and_propagate(
    circuit: Circuit, label: str, side: str, pauli: str
) -> tuple[MeasurementSignature, PauliOperator]:
    """Signature and block residual of one fault, read from :func:`fault_map`.

    Raises KeyError when the map holds no such fault: no gate carries
    ``label``, or the leg is not an enumerable one.
    """
    return fault_map(circuit)[FaultLocation(label, side, pauli)]


def reconstruct_meta(circuit: Circuit) -> Circuit:
    """The same circuit, once its gates read as an encode/decode cycle: its
    layout is read off them (:attr:`Circuit.layout`), so this raises
    ValueError at load for a circuit that is not a cycle, and attaches nothing."""
    circuit.layout  # raises ValueError on a non-cycle
    return circuit


def canonical_residual(layout: CycleLayout, residual: PauliOperator) -> tuple[int, int]:
    """Observable part of a residual in ``layout``'s cycle: full Pauli on
    unread qubits, the measurement-flipping component on read-out qubits."""
    x_mask, z_mask = layout.observable
    return (residual.x_bits & x_mask, residual.z_bits & z_mask)


def view_table(circuit: Circuit, view: str) -> DecodingTable:
    """Single-error-type table as grouped in the reference analysis.

    The X view holds X faults on CNOT legs. The Z view holds Z faults on
    CNOT legs plus every effective Hadamard fault (Z after an encode-side H,
    X after a decode-side H mimic Z-type residuals). The Y view holds Y
    faults on CNOT legs and Hadamards. The tables are memoized with the map,
    by circuit content, and share their entries read-only (members are
    tuples).
    """
    if view not in _HADAMARD_PAULIS:
        raise ValueError(f"unknown view {view!r}")
    return _analysis(tuple(circuit.gates))[1][view]


_HADAMARD_PAULIS = {"X": (), "Y": ("Y",), "Z": ("X", "Z")}  # the Hadamard faults in each view


def view_paulis(view: str, side: str) -> tuple[str, ...]:
    """The faults a view holds on one leg: its own Pauli on a CNOT leg, the
    view's effective faults on a Hadamard."""
    return _HADAMARD_PAULIS[view] if side == "single" else (view,)


# The views partition the map: each (leg, Pauli) belongs to one view.
_VIEW_OF = {(side, pauli): view for view in _HADAMARD_PAULIS for side in ("control", "target", "single")
            for pauli in view_paulis(view, side)}


# ---------------------------------------------------------------------------
# Collision classification and perfect-operation ledgers
# ---------------------------------------------------------------------------

PerfectOpLedger = frozenset  # of (base label, side, pauli) keys


CollisionClass = namedtuple("CollisionClass", (
    "signature",          # MeasurementSignature
    "verdict",            # str: "unique" | "benign" | "ambiguous"
    "members",            # tuple[tuple[FaultLocation, PauliOperator], ...]
    "includes_no_error",  # bool
    "residual_groups",    # tuple[tuple[tuple[int, int], tuple[FaultLocation, ...]], ...]
))


def ledger_covers(ledger: PerfectOpLedger, loc: FaultLocation) -> bool:
    """True when the ledger assumes the fault's leg perfect for its Pauli or
    for one of its components: a Y fault is covered by its leg's X or Z key."""
    if not ledger:
        return False
    key = label, side, pauli = loc.ledger_key()
    return key in ledger or pauli == "Y" and ((label, side, "X") in ledger or (label, side, "Z") in ledger)


def counts_as_member(
    layout: CycleLayout, loc: FaultLocation, sig: MeasurementSignature, canonical: tuple[int, int],
    ledger: PerfectOpLedger,
) -> bool:
    """The one membership rule of classes, ledgers and depth counts.

    A fault the ledger covers, or one on a flag-qubit leg of ``layout``
    (gadget-internal: the condition-1 audit covers it), is no member. Any
    other fault is one when it flips a readout or leaves an observable
    residual (``canonical``, its :func:`canonical_residual`). Flag bits
    count only for the flag CNOTs' own wire legs, the overhead the gadget
    must account for; for the labeled gates a flag false-positive alone is
    not a result (the block is rejected, no error is delivered).
    """
    if (loc.label, loc.side) in layout.flag_legs or ledger_covers(ledger, loc):
        return False
    flipped = sig.word if loc.label.startswith("CN") else sig.word >> sig.shape[3]  # flag bits are lowest
    return bool(flipped) or canonical != (0, 0)


def classify_collisions(table: DecodingTable, ledger: PerfectOpLedger = frozenset()) -> list[CollisionClass]:
    """Group faults by signature and judge whether one correction fits all.

    Only members (:func:`counts_as_member` under ``ledger``) are classified.
    Within one signature class all read-out flips coincide by construction,
    so members can only disagree on the unread data qubit; ``benign`` means
    they do not. The table keeps its classes per ledger, so each (circuit
    content, view, ledger) is classified once, into read-only records, and
    each call returns a new list.
    """
    classes = table.classes.get(ledger)
    if classes is None:
        classes = table.classes[ledger] = tuple(_classify(table, ledger))
    return list(classes)


def _classify(table: DecodingTable, ledger: PerfectOpLedger) -> list[CollisionClass]:
    layout = table.layout
    clean = MeasurementSignature(0, layout.shape)
    # The no-error outcome always gets a class; one that no fault shares comes last.
    entries = table.sorted_entries() + ([] if clean in table.entries else [TableEntry(clean, ())])
    classes: list[CollisionClass] = []
    for entry in entries:
        sig = entry.signature
        includes_no_error = sig == clean
        members = []
        groups: dict[tuple[int, int], list[FaultLocation]] = {(0, 0): []} if includes_no_error else {}
        for loc, res in entry.members:
            canonical = canonical_residual(layout, res)
            if counts_as_member(layout, loc, sig, canonical, ledger):
                members.append((loc, res))
                groups.setdefault(canonical, []).append(loc)
        if not members and not includes_no_error:
            continue
        if len(groups) > 1:
            verdict = "ambiguous"
        else:
            verdict = "benign" if len(members) + includes_no_error > 1 else "unique"
        residual_groups = tuple([(canonical, tuple(locs)) for canonical, locs in sorted(groups.items())])
        classes.append(CollisionClass(sig, verdict, tuple(members), includes_no_error, residual_groups))
    return classes


def derive_perfect_assumptions(table: DecodingTable) -> PerfectOpLedger:
    """Minimum set of location-sides whose removal leaves no ambiguity.

    Signature classes are disjoint in members, so a per-class minimum is a
    global minimum: in each ambiguous class keep exactly one residual group
    (forced to the no-effect group when the class contains the clean
    signature) and assume every other member perfect. Ties between groups of
    equal size are broken by discarding the group whose members sit later in
    the circuit.
    """
    removed: set[tuple[str, str, str]] = set()
    for cls in classify_collisions(table):
        if cls.verdict != "ambiguous":
            continue
        groups = cls.residual_groups
        if cls.includes_no_error:
            keep = (0, 0)
        else:
            # The largest group; a tie keeps the group whose last member (locs keep map order) is earliest.
            keep = min(groups, key=lambda group: (-len(group[1]), group[1][-1].sort_key(), group[0]))[0]
        for canonical, locs in groups:
            if canonical != keep:
                removed.update(loc.ledger_key() for loc in locs)
    return frozenset(removed)


def ledger_from_names(names) -> PerfectOpLedger:
    return frozenset(location_from_name(n) for n in names)


def ledger_names(ledger: PerfectOpLedger) -> list[str]:
    return sorted(FaultLocation(lbl, side, pauli).display_name() for lbl, side, pauli in ledger)


# ---------------------------------------------------------------------------
# Flag-gadget usage conditions
# ---------------------------------------------------------------------------

class FlagConditionReport(namedtuple("FlagConditionReport", (
    "gadget_id",   # int
    "kind",        # str
    "cn_labels",   # tuple[str, str]
    "condition1",  # bool
    "condition2",  # bool
    "condition3",  # bool
    "detail",      # dict
))):
    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3


def check_flag_conditions(
    circuit: Circuit,
    x_ledger: PerfectOpLedger = frozenset(),
    z_ledger: PerfectOpLedger = frozenset(),
) -> list[FlagConditionReport]:
    """Mechanical audit of the three usage conditions per flag gadget.

    1. The guarded-type fault on the wire at the first CN is either
       signature-distinct from the gadget's own flag-leg faults or, like
       them, has no observable effect.
    2. The guarded-type fault on the wire after the second CN joins no
       signature class with a conflicting correction.
    3. Opposite-type faults on the gadget's wire legs leave the
       opposite-type table unambiguous (judged under that table's ledger).
    """
    layout = circuit.layout
    if not layout.gadgets:
        return []
    faults = fault_map(circuit)
    ambiguous = {
        kind: {cls.signature for cls in classify_collisions(view_table(circuit, kind), ledger)
               if cls.verdict == "ambiguous"}
        for kind, ledger in (("X", x_ledger), ("Z", z_ledger))
    }
    reports = []
    for plan in layout.gadgets:
        kind = plan.kind  # also the guarded fault type
        other = "Z" if kind == "X" else "X"
        wire_side = "control" if kind == "X" else "target"
        cn_a, cn_b = plan.cn_labels

        sig_a, res_a = faults[FaultLocation(cn_a, wire_side, kind)]
        own = [faults[FaultLocation(lbl, plan.flag_side, kind)] for lbl in (cn_a, cn_b)]
        harmless_a = canonical_residual(layout, res_a) == (0, 0)
        cond1 = all(
            sig_a != sig or (harmless_a and canonical_residual(layout, res) == (0, 0))
            for sig, res in own
        )

        sig_b, _ = faults[FaultLocation(cn_b, wire_side, kind)]
        cond2 = sig_b not in ambiguous[kind]

        other_sigs = {f"{other}@{lbl}": faults[FaultLocation(lbl, wire_side, other)][0] for lbl in (cn_a, cn_b)}
        cond3 = not ambiguous[other] & set(other_sigs.values())
        reports.append(
            FlagConditionReport(
                plan.gadget_id, kind, plan.cn_labels, cond1, cond2, cond3,
                {"sig_first_cn_wire": str(sig_a), "sig_second_cn_wire": str(sig_b),
                 **{key: str(sig) for key, sig in other_sigs.items()}},
            )
        )
    return reports
