"""Fault-list analysis rules.

The checks receive a :class:`FaultListContext` binding the fault list to
the nominal circuit it targets, because almost every fault defect is a
mismatch between the two: injection sites that do not exist, terminals the
device does not have, or an injected topology that trips a netlist ERC
rule.  The site checks mirror :class:`repro.anafault.FaultInjector` exactly
— a fault flagged here is one that would raise
:class:`~repro.errors.FaultInjectionError` (or produce a singular system)
at campaign time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..lift.faultlist import WEIGHT_META_PREFIX
from ..lift.faults import (MOSFET_TERMINALS, TWO_TERMINALS, BridgingFault,
                           Fault, OpenFault, ParametricFault, SplitNodeFault,
                           StuckOpenFault)
from ..spice.devices.mosfet import DEFAULT_MOS_PARAMS, Mosfet
from ..spice.devices.passives import Capacitor, Inductor, Resistor
from ..spice.netlist import Circuit, normalize_node
from .diagnostics import SEVERITY_ERROR, SEVERITY_WARNING, Diagnostic
from .registry import FAMILY_FAULTLIST, register_rule


class FaultListContext:
    """Input of the fault-list rule family: faults plus their target.

    ``model_options`` mirrors the fault-model settings the campaign will
    use (the ``fault-topology`` rule injects with them); ``None`` selects
    the library defaults.
    """

    def __init__(self, circuit: Circuit, faults: Iterable[Fault] = (),
                 model_options: Optional[object] = None) -> None:
        self.circuit = circuit
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.model_options = model_options
        # Fault-list metadata (``* meta`` lines); a bare fault iterable has
        # none.  The ``unknown-meta`` rule inspects it.
        self.metadata: Dict[str, object] = dict(
            getattr(faults, "metadata", None) or {})


def _terminal_names(device: object) -> Tuple[str, ...]:
    """The terminal-name vocabulary ``terminal_index`` accepts."""
    nodes = getattr(device, "nodes", ())
    return MOSFET_TERMINALS if len(nodes) >= 4 else TWO_TERMINALS


def _location(fault: Fault) -> str:
    return f"fault #{fault.fault_id}"


@register_rule("unknown-fault-site", FAMILY_FAULTLIST, SEVERITY_ERROR,
               "a fault references a net/device missing from the circuit")
def check_unknown_fault_site(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Flag faults whose injection site does not exist.

    Mirrors the existence checks of ``FaultInjector``: these faults raise
    :class:`~repro.errors.FaultInjectionError` at campaign time and are
    recorded as ``injection_failed``.
    """
    circuit = ctx.circuit
    for fault in ctx.faults:
        if isinstance(fault, BridgingFault):
            for net in (fault.net_a, fault.net_b):
                if not circuit.has_node(net):
                    yield Diagnostic(
                        code="unknown-fault-site", severity=SEVERITY_ERROR,
                        location=_location(fault),
                        message=(f"bridging fault {fault.label()!r} "
                                 f"references net {net!r}, which does not "
                                 "exist in the circuit"),
                        fixit="fix the net name or drop the fault")
        elif isinstance(fault, (OpenFault, StuckOpenFault)):
            if fault.device not in circuit:
                yield Diagnostic(
                    code="unknown-fault-site", severity=SEVERITY_ERROR,
                    location=_location(fault),
                    message=(f"open fault {fault.label()!r} references "
                             f"unknown device {fault.device!r}"),
                    fixit="fix the device name or drop the fault")
        elif isinstance(fault, SplitNodeFault):
            yield from _check_split_site(circuit, fault)
        elif isinstance(fault, ParametricFault):
            yield from _check_parametric_site(circuit, fault)


def _check_split_site(circuit: Circuit,
                      fault: SplitNodeFault) -> Iterable[Diagnostic]:
    if not circuit.has_node(fault.net):
        yield Diagnostic(
            code="unknown-fault-site", severity=SEVERITY_ERROR,
            location=_location(fault),
            message=(f"split fault {fault.label()!r} references net "
                     f"{fault.net!r}, which does not exist"),
            fixit="fix the net name or drop the fault")
        return
    movable = 0
    for device_name, terminal in fault.group_b:
        if device_name not in circuit:
            continue
        device = circuit.device(device_name)
        names = _terminal_names(device)
        if terminal.lower() not in names:
            continue  # unknown-terminal reports this entry
        index = names.index(terminal.lower())
        # The injector compares the raw net name, so case mismatches
        # against the normalised circuit nodes fail to move the terminal.
        if device.nodes[index] == fault.net:
            movable += 1
    if movable == 0:
        yield Diagnostic(
            code="unknown-fault-site", severity=SEVERITY_ERROR,
            location=_location(fault),
            message=(f"split fault {fault.label()!r} moves no terminal: "
                     f"no listed (device, terminal) pair sits on net "
                     f"{fault.net!r}"),
            fixit="list terminals actually connected to the split net")


def _check_parametric_site(circuit: Circuit,
                           fault: ParametricFault) -> Iterable[Diagnostic]:
    if fault.device not in circuit:
        yield Diagnostic(
            code="unknown-fault-site", severity=SEVERITY_ERROR,
            location=_location(fault),
            message=(f"parametric fault {fault.label()!r} references "
                     f"unknown device {fault.device!r}"),
            fixit="fix the device name or drop the fault")
        return
    device = circuit.device(fault.device)
    parameter = fault.parameter.lower()
    applicable: Tuple[str, ...]
    if isinstance(device, Resistor):
        applicable = ("r", "value", "resistance")
    elif isinstance(device, Capacitor):
        applicable = ("c", "value", "capacitance")
    elif isinstance(device, Inductor):
        applicable = ("l", "value", "inductance")
    elif isinstance(device, Mosfet):
        model = circuit.models.get(device.model_name.lower())
        model_params: Tuple[str, ...] = ()
        if model is not None:
            model_params = tuple(model.params)
        applicable = (("w", "l", "vto", "kp", "gamma", "phi", "lambda",
                       "tox") + tuple(DEFAULT_MOS_PARAMS) + model_params)
    else:
        applicable = ()
    if parameter not in applicable:
        yield Diagnostic(
            code="unknown-fault-site", severity=SEVERITY_ERROR,
            location=_location(fault),
            message=(f"parametric fault {fault.label()!r}: parameter "
                     f"{fault.parameter!r} does not apply to "
                     f"{type(device).__name__} {device.name!r}"),
            fixit="deviate a parameter the device actually has")


@register_rule("unknown-terminal", FAMILY_FAULTLIST, SEVERITY_ERROR,
               "a fault names a terminal its target device does not have")
def check_unknown_terminal(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Flag terminal names that ``terminal_index`` would reject.

    Open faults on R/C/L are exempt: the injector coerces any terminal
    name to ``pos`` for two-terminal passives.
    """
    circuit = ctx.circuit
    for fault in ctx.faults:
        if isinstance(fault, (OpenFault, StuckOpenFault)):
            if fault.device not in circuit:
                continue  # unknown-fault-site reports the device
            device = circuit.device(fault.device)
            if isinstance(device, (Resistor, Capacitor, Inductor)):
                continue  # injector coerces the terminal to "pos"
            if fault.terminal.lower() in _terminal_names(device):
                continue
            yield Diagnostic(
                code="unknown-terminal", severity=SEVERITY_ERROR,
                location=_location(fault),
                message=(f"fault {fault.label()!r} names terminal "
                         f"{fault.terminal!r}, but device "
                         f"{device.name!r} has terminals "
                         f"{', '.join(_terminal_names(device))}"),
                fixit="use one of the device's terminal names")
        elif isinstance(fault, SplitNodeFault):
            for device_name, terminal in fault.group_b:
                if device_name not in circuit:
                    continue
                device = circuit.device(device_name)
                if terminal.lower() in _terminal_names(device):
                    continue
                yield Diagnostic(
                    code="unknown-terminal", severity=SEVERITY_ERROR,
                    location=_location(fault),
                    message=(f"split fault {fault.label()!r} lists "
                             f"({device_name!r}, {terminal!r}), but the "
                             f"device has terminals "
                             f"{', '.join(_terminal_names(device))}"),
                    fixit="use one of the device's terminal names")


@register_rule("duplicate-fault-id", FAMILY_FAULTLIST, SEVERITY_ERROR,
               "two faults share the same fault id")
def check_duplicate_fault_id(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Flag fault ids used more than once.

    Campaign bookkeeping (checkpoints, verdict maps, shard merges) keys
    results by fault id; duplicates silently overwrite each other.
    """
    by_id: Dict[int, List[Fault]] = {}
    for fault in ctx.faults:
        by_id.setdefault(fault.fault_id, []).append(fault)
    for fault_id, faults in sorted(by_id.items()):
        if len(faults) < 2:
            continue
        kinds = ", ".join(f.kind for f in faults)
        yield Diagnostic(
            code="duplicate-fault-id", severity=SEVERITY_ERROR,
            location=f"fault #{fault_id}",
            message=(f"fault id {fault_id} is used by {len(faults)} "
                     f"faults ({kinds}); campaign results are keyed by "
                     "id and would collide"),
            fixit="renumber the fault list with unique ids")


@register_rule("noop-fault", FAMILY_FAULTLIST, SEVERITY_WARNING,
               "a fault that cannot change circuit behaviour")
def check_noop_fault(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Flag faults that inject no electrical change.

    A parametric fault with zero deviation and a bridge between aliases
    of the same node both simulate fine — and waste a full transient run
    re-deriving the nominal waveform.
    """
    for fault in ctx.faults:
        if isinstance(fault, ParametricFault):
            if fault.relative_change == 0.0:
                yield Diagnostic(
                    code="noop-fault", severity=SEVERITY_WARNING,
                    location=_location(fault),
                    message=(f"parametric fault {fault.label()!r} has "
                             "zero relative change; the faulty circuit "
                             "equals the nominal one"),
                    fixit="drop the fault or give it a deviation")
        elif isinstance(fault, BridgingFault):
            try:
                same = (normalize_node(fault.net_a)
                        == normalize_node(fault.net_b))
            except ReproError:
                continue  # unparsable net name; site rule reports it
            if same:
                yield Diagnostic(
                    code="noop-fault", severity=SEVERITY_WARNING,
                    location=_location(fault),
                    message=(f"bridging fault {fault.label()!r} shorts "
                             f"net {fault.net_a!r} to an alias of "
                             "itself"),
                    fixit="bridge two electrically distinct nets")


def normalized_signature(fault: Fault) -> Tuple[object, ...]:
    """Electrical signature with net names normalised.

    ``Fault.signature`` compares raw net strings; ``OUT`` and ``out``
    would not merge even though they are the same node.  This is the
    equivalence key both the ``equivalent-faults`` rule and the collapsing
    stage of :mod:`repro.anafault.faultgen` use: two faults with the same
    normalized signature make :class:`repro.anafault.FaultInjector` build
    the identical faulty circuit.
    """
    def norm(net: str) -> str:
        try:
            return normalize_node(net)
        except ReproError:
            return net

    if isinstance(fault, BridgingFault):
        nets = sorted((norm(fault.net_a), norm(fault.net_b)))
        return ("bridge", nets[0], nets[1])
    if isinstance(fault, SplitNodeFault):
        return ("split", norm(fault.net), fault.group_b)
    return tuple(fault.signature())


@register_rule("equivalent-faults", FAMILY_FAULTLIST, SEVERITY_WARNING,
               "faults with identical electrical signatures")
def check_equivalent_faults(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Flag groups of faults that are statically equivalent.

    Equivalent faults produce identical faulty circuits; simulating each
    one repeats the same transient.  ``FaultList.merge_equivalent()``
    collapses them while summing probabilities.
    """
    groups: Dict[Tuple[object, ...], List[Fault]] = {}
    for fault in ctx.faults:
        groups.setdefault(normalized_signature(fault), []).append(fault)
    for signature in sorted(groups, key=repr):
        faults = groups[signature]
        if len(faults) < 2:
            continue
        ids = ", ".join(f"#{f.fault_id}" for f in faults)
        yield Diagnostic(
            code="equivalent-faults", severity=SEVERITY_WARNING,
            location=f"fault #{faults[0].fault_id}",
            message=(f"faults {ids} share the electrical signature "
                     f"{signature!r}; simulating all of them repeats "
                     "identical transients"),
            fixit="collapse them with FaultList.merge_equivalent()")


@register_rule("unknown-meta", FAMILY_FAULTLIST, SEVERITY_WARNING,
               "a weight meta line did not bind to any fault")
def check_unknown_meta(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Flag ``* meta weight.<id>`` lines that bound to no fault.

    ``FaultList.loads`` attaches each well-formed weight meta line to the
    fault with the matching id and leaves orphans (ids absent from the
    list) and malformed entries (non-integer id, a value that is not a
    finite non-negative float) in the raw metadata so the file
    round-trips byte-faithfully.  Anything with
    the weight prefix still sitting in the metadata is therefore a weight
    the campaign silently ignores.
    """
    known_ids = {fault.fault_id for fault in ctx.faults}
    for key in sorted(ctx.metadata):
        if not key.startswith(WEIGHT_META_PREFIX):
            continue
        suffix = key[len(WEIGHT_META_PREFIX):]
        value = ctx.metadata[key]
        try:
            fault_id: Optional[int] = int(suffix)
        except ValueError:
            fault_id = None
        if fault_id is None:
            detail = f"{suffix!r} is not a fault id"
        elif fault_id not in known_ids:
            detail = f"no fault has id {fault_id}"
        else:
            detail = f"value {value!r} is not a number in [0, inf)"
        yield Diagnostic(
            code="unknown-meta", severity=SEVERITY_WARNING,
            location=f"meta {key}",
            message=(f"weight meta line {key}={value} binds to no fault "
                     f"({detail}); the weight is ignored by coverage "
                     "aggregation"),
            fixit="fix the fault id/value or delete the meta line")


@register_rule("fault-topology", FAMILY_FAULTLIST, SEVERITY_ERROR,
               "an injected fault makes the faulted netlist trip an ERC rule")
def check_fault_topology(ctx: FaultListContext) -> Iterable[Diagnostic]:
    """Inject each fault and re-run the netlist ERC on the faulted copy.

    A fault can be perfectly well-formed and still produce a circuit the
    simulator refuses — e.g. a short-model bridge closing a voltage-source
    loop.  Diagnostics the nominal circuit already carries are subtracted,
    so only defects *introduced by the injection* are reported, at the
    severity of the underlying netlist rule.
    """
    from ..anafault.injection import FaultInjector
    from ..anafault.models import FaultModelOptions
    from .registry import FAMILY_NETLIST, rules_for

    options = ctx.model_options
    if not isinstance(options, FaultModelOptions):
        options = FaultModelOptions()
    injector = FaultInjector(ctx.circuit, options)

    def erc(circuit: Circuit) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        for rule in rules_for(FAMILY_NETLIST):
            assert rule.check is not None
            found.extend(rule.check(circuit))
        return found

    nominal = {(d.code, d.location) for d in erc(ctx.circuit)}
    for fault in ctx.faults:
        try:
            faulty = injector.inject(fault)
        except ReproError:
            continue  # the site rules already cover uninjectable faults
        for finding in erc(faulty):
            if (finding.code, finding.location) in nominal:
                continue
            yield Diagnostic(
                code="fault-topology", severity=finding.severity,
                location=_location(fault),
                message=(f"injecting fault {fault.label()!r} trips "
                         f"{finding.code} at {finding.location}: "
                         f"{finding.message}"),
                fixit=finding.fixit or "review the fault model settings")
