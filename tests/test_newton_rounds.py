"""Lockstep Newton rounds against the one-variant kernel, bit for bit.

A round of the batched transient linearises several circuit variants with
one device-bank evaluation (:class:`~repro.spice.analysis.mna.\
FusedIteration`, :class:`~repro.spice.devices.mosfet.FusedMosfetBanks`) and
solves them with one stacked LAPACK call
(:class:`~repro.spice.analysis.backends.StackedMNASystem`).  This suite
pins every piece of that round to what each variant's own
``build_iteration`` and :meth:`MNASystem.solve` produce: matrix,
right-hand side, ``state.limited``, the bank's :class:`MosfetState` and
``operating_point``, and the solutions (or which variant's solve fails).
The variants are small MOSFET circuits carrying the fault kinds a campaign
injects: an open (one extra node), W/L and model-card changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SingularMatrixError
from repro.spice import Circuit, Mosfet, Resistor
from repro.spice.analysis.backends import MNASystem, StackedMNASystem
from repro.spice.analysis.mna import FusedIteration, MNABuilder
from repro.spice.analysis.newton import NewtonRound
from repro.spice.devices.mosfet import OP_KEYS
from repro.spice.netlist import Model

NMOS = {"vto": 0.8, "kp": 5e-5, "gamma": 0.45, "phi": 0.65, "lambda": 0.03}
PMOS = {"vto": -0.9, "kp": 2e-5, "gamma": 0.5, "phi": 0.7, "lambda": 0.05}
TERMINALS = ("d", "g", "s", "b")


def variant_circuit(devices, fault, pad_nodes: int = 0) -> Circuit:
    """The circuit of ``devices`` (``(kind, terminals, params)``) with
    ``fault`` injected, plus ``pad_nodes`` resistor-loaded nodes.

    ``fault`` is ``("none",)``, ``("open", device, terminal)`` (the
    terminal moves to a fresh node tied back through 1 MOhm),
    ``("wl", device, w_factor, l_factor)`` or ``("model", device, key,
    value)``.
    """
    circuit = Circuit("round variant")
    circuit.add(Resistor("RREF", "ref", "0", 1e3))
    for pad in range(pad_nodes):
        circuit.add(Resistor(f"RPAD{pad}", f"pad{pad}", "0", 1e4))
    for index, (kind, terminals, params) in enumerate(devices):
        terminals = list(terminals)
        params = dict(params)
        w, l = 10e-6, 2e-6
        if fault[0] != "none" and fault[1] == index:
            if fault[0] == "open":
                position = fault[2]
                original = terminals[position]
                terminals[position] = "open"
                circuit.add(Resistor("ROPEN", "open", original, 1e6))
            elif fault[0] == "wl":
                w, l = w * fault[2], l * fault[3]
            else:
                params[fault[2]] = fault[3]
        circuit.add_model(Model(f"mod{index}", kind, **params))
        circuit.add(Mosfet(f"M{index}", *terminals, f"mod{index}", w=w, l=l))
    return circuit


def bound(circuit, volts, history, gmin):
    """A builder and state of ``circuit`` ready for ``build_iteration``:
    iterate from ``volts``, limiting history ``history`` per MOSFET."""
    builder = MNABuilder(circuit)
    state = builder.new_state("op")
    state.x = np.array(volts[:builder.size], dtype=float)
    state.gmin = gmin
    builder.assemble_constant(state)
    builder.begin_iterations()
    newton = builder.mosfet_bank.newton
    newton.vgs_last = np.array([vgs for vgs, _ in history], dtype=float)
    newton.vds_last = np.array([vds for _, vds in history], dtype=float)
    return builder, state


def bank_bits(builder) -> bytes:
    """The bank's Newton state and every member's ``operating_point``, as
    bytes (so 0.0 vs -0.0 and NaN payloads count)."""
    bank = builder.mosfet_bank
    newton = bank.newton
    parts = [newton.vgs_last.tobytes(), newton.vds_last.tobytes()]
    parts += [values.tobytes() for values in newton.op]
    for mosfet in bank.mosfets:
        op = mosfet.operating_point
        parts.append(np.array([op[key] for key in OP_KEYS[:-1]]).tobytes())
        parts.append(bytes([op["reverse"]]))
    return b"".join(parts)


def outcome_bits(outcome):
    if isinstance(outcome, SingularMatrixError):
        return "singular"
    return outcome.tobytes()


def solo_outcome(system):
    try:
        return system.solve()
    except SingularMatrixError as exc:
        return exc


def assert_round_is_solo(variants, pad_to_one_size: bool) -> None:
    """Fused rounds of ``variants`` (``(devices, fault, volts, history,
    gmin)``) equal each variant's own kernel, byte for byte."""
    pads = [0] * len(variants)
    if pad_to_one_size:
        sizes = [MNABuilder(variant_circuit(devices, fault)).size
                 for devices, fault, *_ in variants]
        pads = [max(sizes) - size for size in sizes]

    def instances():
        return [bound(variant_circuit(devices, fault, pad), volts, history,
                      gmin)
                for (devices, fault, volts, history, gmin), pad
                in zip(variants, pads)]

    solo = []
    for builder, state in instances():
        system = builder.build_iteration(state)
        solo.append((system.matrix.tobytes(), system.rhs.tobytes(),
                     state.limited, bank_bits(builder),
                     outcome_bits(solo_outcome(system))))

    # One FusedIteration per group of one fusion key (one system size).
    fused = instances()
    groups: dict = {}
    for j, (builder, _) in enumerate(fused):
        groups.setdefault(builder.fusion_key(), []).append(j)
    if pad_to_one_size:
        assert len(groups) == 1
    for positions in groups.values():
        iteration = FusedIteration([fused[j][0] for j in positions],
                                   [fused[j][1] for j in positions])
        system = iteration.build()
        outcomes = system.solve()
        for j, member, outcome in zip(positions, system.members, outcomes):
            builder, state = fused[j]
            got = (member.matrix.tobytes(), member.rhs.tobytes(),
                   state.limited, bank_bits(builder), outcome_bits(outcome))
            assert got == solo[j], f"variant {j} of {len(variants)}"

    # NewtonRound over the whole mixed-size set: the same solutions.
    fresh = instances()
    outcomes = NewtonRound().solve([builder for builder, _ in fresh],
                                   [state for _, state in fresh])
    assert [outcome_bits(outcome) for outcome in outcomes] == \
        [expected[-1] for expected in solo]
    for (builder, state), expected in zip(fresh, solo):
        assert (state.limited, bank_bits(builder)) == expected[2:4]


volts = st.floats(-6.0, 6.0, allow_nan=False)
device_specs = st.tuples(
    st.sampled_from(["nmos", "pmos"]),
    st.lists(st.sampled_from(["d", "g", "s", "b", "0"]), min_size=4,
             max_size=4),
    st.fixed_dictionaries({
        "vto": st.floats(-1.5, 1.5), "kp": st.floats(1e-6, 1e-4),
        "gamma": st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.0),
        "phi": st.floats(0.05, 1.0), "lambda": st.floats(0.0, 0.1)}))


@st.composite
def variant_sets(draw):
    """One nominal circuit of 1-3 MOSFETs and 1-8 faulty variants of it."""
    specs = draw(st.lists(device_specs, min_size=1, max_size=3))
    devices = [(kind, tuple(t if t == "0" else f"{t}{index}"
                            for t in terminals), params)
               for index, (kind, terminals, params) in enumerate(specs)]
    device = st.integers(0, len(devices) - 1)
    faults = st.one_of(
        st.just(("none",)),
        st.tuples(st.just("open"), device, st.integers(0, 3)),
        st.tuples(st.just("wl"), device, st.floats(0.25, 4.0),
                  st.floats(0.25, 4.0)),
        st.tuples(st.just("model"), device,
                  st.sampled_from(["vto", "kp", "gamma", "lambda"]),
                  st.floats(-1.0, 2.0)))
    count = draw(st.integers(1, 8))
    variants = []
    for _ in range(count):
        fault = draw(faults)
        if fault[0] == "model" and fault[2] == "kp":
            fault = fault[:3] + (abs(fault[3]) * 1e-4 + 1e-7,)
        history = draw(st.lists(st.tuples(volts, st.floats(-1.0, 8.0)),
                                min_size=len(devices),
                                max_size=len(devices)))
        node_volts = draw(st.lists(volts, min_size=24, max_size=24))
        gmin = draw(st.sampled_from([1e-12, 1e-12, 1e-9]))
        variants.append((devices, fault, node_volts, history, gmin))
    return variants


@settings(max_examples=150, deadline=None)
@given(variant_sets(), st.booleans())
def test_a_fused_round_is_each_variants_own_kernel(variants, one_size):
    """Any mix of faults, polarities, grounded terminals, lanes and node
    counts: one round gives every variant its own stamps, limiting flag,
    Newton state and solution."""
    assert_round_is_solo(variants, pad_to_one_size=one_size)


def lane_variant(kind, params, node_volts, history):
    devices = [(kind, TERMINALS, params)]
    nodes = MNABuilder(variant_circuit(devices, ("none",))).node_names
    volts = [dict(node_volts, ref=1.0)[name] for name in nodes]
    return devices, ("none",), volts + [0.0] * 19, [history], 1e-12


#: One variant per kernel lane, as the lane test of the scalar device.
LANE_VARIANTS = {
    "saturation": lane_variant("nmos", NMOS,
                               {"d": 4.0, "g": 2.0, "s": 0.0, "b": 0.0},
                               (2.0, 4.0)),
    "triode": lane_variant("nmos", NMOS,
                           {"d": 0.2, "g": 3.5, "s": 0.0, "b": 0.0},
                           (3.5, 0.2)),
    "cutoff": lane_variant("nmos", NMOS,
                           {"d": 3.0, "g": 0.1, "s": 0.0, "b": 0.0},
                           (0.1, 3.0)),
    "cutoff-no-body": lane_variant("nmos", dict(NMOS, gamma=0.0),
                                   {"d": 3.0, "g": 0.1, "s": 0.0, "b": 0.0},
                                   (0.1, 3.0)),
    "pmos": lane_variant("pmos", PMOS,
                         {"d": 1.0, "g": 2.5, "s": 5.0, "b": 5.0},
                         (2.5, 4.0)),
    "reverse": lane_variant("nmos", NMOS,
                            {"d": 0.0, "g": 3.0, "s": 2.0, "b": 0.0},
                            (3.0, 2.0)),
    "limiting-rising": lane_variant("nmos", NMOS,
                                    {"d": 9.0, "g": 6.0, "s": 0.0, "b": 0.0},
                                    (0.0, 0.0)),
    "limiting-falling": lane_variant("nmos", NMOS,
                                     {"d": 0.5, "g": 2.5, "s": 0.0,
                                      "b": 0.0},
                                     (5.0, 5.0)),
}


def test_every_lane_in_one_round():
    """All kernel lanes side by side in one fused evaluation, each variant
    checked against its own kernel; the lanes really are the lanes."""
    names = sorted(LANE_VARIANTS)
    variants = [LANE_VARIANTS[name] for name in names]
    assert_round_is_solo(variants, pad_to_one_size=True)
    ops = {}
    limited = {}
    for name, (devices, fault, volts, history, gmin) in zip(names, variants):
        builder, state = bound(variant_circuit(devices, fault), volts,
                               history, gmin)
        builder.build_iteration(state)
        ops[name] = builder.mosfet_bank.mosfets[0].operating_point
        limited[name] = state.limited
    assert ops["saturation"]["vgs"] - 0.8 < ops["saturation"]["vds"]
    assert ops["triode"]["gds"] > ops["triode"]["gm"]
    assert ops["cutoff"]["ids"] == 0.0
    assert ops["cutoff-no-body"]["gmbs"] == 0.0
    assert ops["reverse"]["reverse"]
    assert ops["pmos"]["ids"] > 0.0
    assert limited["limiting-rising"] and limited["limiting-falling"]
    assert not limited["saturation"]


def test_a_singular_member_fails_alone():
    """LAPACK refuses a stack with one singular matrix; only that member's
    outcome is the error, the others are their one-system solutions."""
    rng = np.random.default_rng(7)
    stack = StackedMNASystem(4, 5)
    for member in stack.members:
        member.matrix[...] = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        member.rhs[...] = rng.standard_normal(5)
    stack.members[1].matrix[...] = 0.0
    stack.members[3].matrix[2, 2] = np.nan
    solo = [solo_outcome(MNASystem.over(member.matrix.copy(),
                                        member.rhs.copy()))
            for member in stack.members]
    outcomes = stack.solve()
    assert [outcome_bits(o) for o in outcomes] == \
        [outcome_bits(o) for o in solo]
    assert [isinstance(o, SingularMatrixError) for o in outcomes] == \
        [False, True, False, True]


def test_stacked_solutions_are_the_one_system_solutions():
    rng = np.random.default_rng(1995)
    for count in (1, 2, 5, 8):
        stack = StackedMNASystem(count, 19)
        for member in stack.members:
            member.matrix[...] = (rng.standard_normal((19, 19))
                                  * 10.0 ** rng.integers(-12, 3, (19, 19)))
            member.rhs[...] = rng.standard_normal(19)
        for member, outcome in zip(stack.members, stack.solve()):
            assert outcome.tobytes() == member.solve().tobytes()


@pytest.mark.parametrize("fault", [("open", 0, 0), ("wl", 0, 2.0, 0.5),
                                   ("model", 0, "vto", 0.3)])
def test_mixed_sizes_round_groups_by_size(fault):
    """An open fault's extra node puts its variant in a size group of its
    own; the round still gives each variant its own solution."""
    devices = [("nmos", TERMINALS, NMOS)]
    base = [2.0, 3.0, 1.5, 1.0, 0.5, 0.7] + [0.0] * 18
    variants = [(devices, ("none",), base, [(1.0, 2.0)], 1e-12),
                (devices, fault, base, [(1.0, 2.0)], 1e-12),
                (devices, ("none",), base[::-1], [(0.0, 0.0)], 1e-12)]
    assert_round_is_solo(variants, pad_to_one_size=False)


class _NaNAtCall:
    """A scalar nonlinear stamp that poisons its system on one call."""

    def __init__(self, call: int):
        self.call = call
        self.calls = 0

    def stamp_iteration(self, system, state) -> None:
        self.calls += 1
        if self.calls == self.call:
            system.add(0, 0, float("nan"))


def _inverter(input_voltage, poison_call=None):
    from repro.circuits.library import build_cmos_inverter

    builder = MNABuilder(build_cmos_inverter(input_voltage=input_voltage))
    if poison_call is not None:
        builder._scalar_nonlinear.append(_NaNAtCall(poison_call))
    return builder, builder.new_state("op")


@pytest.mark.parametrize("poison_call", [1, 2])
def test_a_singular_iteration_hits_only_its_own_variant(poison_call):
    """A NaN linearisation in one variant of a round: at its first
    iteration its Newton solve fails, later it takes the damped retry;
    either way its siblings converge exactly as they do alone."""
    from repro.spice.analysis.newton import newton_iterations, solve_newton

    voltages = (0.0, 1.7, 2.5, 5.0)
    poisoned = 1

    def pairs():
        return [_inverter(v, poison_call if j == poisoned else None)
                for j, v in enumerate(voltages)]

    solo = []
    for builder, state in pairs():
        try:
            solve_newton(builder, state)
            solo.append((state.x.tobytes(), state.last_newton_iterations))
        except SingularMatrixError:
            solo.append("singular")
    lockstep = pairs()
    failures = NewtonRound().drive(
        {j: (builder, state, newton_iterations(builder, state))
         for j, (builder, state) in enumerate(lockstep)})
    assert all(isinstance(exc, SingularMatrixError)
               for exc in failures.values())
    got = ["singular" if j in failures
           else (state.x.tobytes(), state.last_newton_iterations)
           for j, (_, state) in enumerate(lockstep)]
    assert got == solo
    assert (solo[poisoned] == "singular") == (poison_call == 1)
    assert "singular" not in solo[:poisoned] + solo[poisoned + 1:]
