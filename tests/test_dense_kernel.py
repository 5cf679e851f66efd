"""The dense kernel's fixed costs against the code they replaced, exactly.

Every transient builds an :class:`~repro.spice.analysis.mna.MNABuilder`,
initialises its history and then solves a dense system per Newton
iteration, so these steps are written for speed:

* :class:`~repro.spice.devices.mosfet.MosfetBank` and
  :class:`~repro.spice.devices.base.CompanionCapacitorBank` build their
  scatter maps from one ``np.nonzero`` over terminal masks.  The loops
  they replaced are kept here (:func:`loop_built_mosfet_maps`,
  :func:`loop_built_companion_maps`) and every map must equal theirs,
  entry order and dtype included.
* :meth:`MNABuilder.init_state` initialises the companion history and the
  MOSFET limiting history bank by bank.  The per-device loop it replaced
  is kept here (:func:`per_device_init_state`) and both must leave the
  same floats, ``Capacitor(ic=)`` under ``use_ic`` and diodes included.
* :class:`~repro.spice.analysis.backends.MNASystem` scatters on its
  raveled matrix and solves with the LAPACK gufunc behind
  ``np.linalg.solve``: the results must be those of the 2-D
  ``np.add.at`` and of ``np.linalg.solve``, and failures the same
  :class:`SingularMatrixError`, alone and in a
  :class:`~repro.spice.analysis.backends.StackedMNASystem`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import build_vco
from repro.errors import SingularMatrixError
from repro.spice import (Capacitor, Circuit, Diode, Inductor, Mosfet,
                         Resistor, VoltageSource)
from repro.spice.analysis.backends import MNASystem, StackedMNASystem
from repro.spice.analysis.mna import MNABuilder
from repro.spice.netlist import Model

NMOS = {"vto": 0.8, "kp": 5e-5, "gamma": 0.45, "phi": 0.65, "lambda": 0.03}
PMOS = {"vto": -0.9, "kp": 2e-5, "gamma": 0.5, "phi": 0.7, "lambda": 0.05}


# ---------------------------------------------------------------------------
# The loops the array-built maps and the bank-level init replaced
# ---------------------------------------------------------------------------

def loop_built_mosfet_maps(mosfets) -> dict:
    """The scatter maps of a :class:`MosfetBank` over ``mosfets``, built
    device by device as before."""
    count = len(mosfets)
    idx = np.array([m._idx for m in mosfets], dtype=int).reshape(count, 4).T
    d, g, s, b = idx
    slot_rows = (d, d, d, d, s, s, s, s)
    slot_cols = (g, d, s, b, g, d, s, b)
    buffer_row = (0, 2, 3, 1, 4, 6, 7, 5)
    m_rows, m_cols, m_slot, m_dev = [], [], [], []
    for slot, (rows, cols) in enumerate(zip(slot_rows, slot_cols)):
        for dev in range(count):
            if rows[dev] >= 0 and cols[dev] >= 0:
                m_rows.append(rows[dev])
                m_cols.append(cols[dev])
                m_slot.append(buffer_row[slot])
                m_dev.append(dev)
    r_rows, r_slot, r_dev = [], [], []
    for slot, rows in enumerate((d, s)):
        for dev in range(count):
            if rows[dev] >= 0:
                r_rows.append(rows[dev])
                r_slot.append(slot)
                r_dev.append(dev)
    return {
        "_m_index": (np.asarray(m_rows, dtype=int),
                     np.asarray(m_cols, dtype=int)),
        "_m_flat": (np.asarray(m_slot, dtype=int) * count
                    + np.asarray(m_dev, dtype=int)),
        "_r_rows": np.asarray(r_rows, dtype=int),
        "_r_flat": (np.asarray(r_slot, dtype=int) * count
                    + np.asarray(r_dev, dtype=int)),
    }


def loop_built_companion_maps(entries) -> dict:
    """The scatter maps of a :class:`CompanionCapacitorBank` over
    ``entries``, built capacitance by capacitance as before."""
    entries = [(cap, pos, neg) for cap, pos, neg, _ in entries if cap > 0.0]
    m_rows, m_cols, m_cap, m_sign = [], [], [], []
    r_rows, r_cap, r_sign = [], [], []
    for k, (_cap, pos, neg) in enumerate(entries):
        for row, col, sign in ((pos, pos, 1.0), (neg, neg, 1.0),
                               (pos, neg, -1.0), (neg, pos, -1.0)):
            if row >= 0 and col >= 0:
                m_rows.append(row)
                m_cols.append(col)
                m_cap.append(k)
                m_sign.append(sign)
        if pos >= 0:
            r_rows.append(pos)
            r_cap.append(k)
            r_sign.append(-1.0)
        if neg >= 0:
            r_rows.append(neg)
            r_cap.append(k)
            r_sign.append(1.0)
    return {
        "_m_index": (np.asarray(m_rows, dtype=int),
                     np.asarray(m_cols, dtype=int)),
        "_m_cap": np.asarray(m_cap, dtype=int),
        "_m_sign": np.asarray(m_sign),
        "_r_rows": np.asarray(r_rows, dtype=int),
        "_r_cap": np.asarray(r_cap, dtype=int),
        "_r_sign": np.asarray(r_sign),
    }


def per_device_init_state(builder: MNABuilder, state) -> None:
    """Transient initialisation as the devices' own ``init_state`` loop
    did it, one float at a time: each capacitance's history (the branch
    voltage, or ``ic=`` under ``use_ic``, and zero current), each MOSFET's
    limiting history zeroed, a diode's limiting history at its junction
    voltage.  The floats are collected in test-side lists, in the order
    of the builder's banks, and handed to the banks as arrays."""
    v_prev, i_prev, vgs_last, vds_last = [], [], [], []
    for device in builder.devices:
        for capacitance, pos, neg, initial in device.companion_entries():
            if capacitance <= 0.0:
                continue
            v0 = state.v(pos) - state.v(neg)
            if initial is not None and state.use_ic:
                v0 = initial
            v_prev.append(v0)
            i_prev.append(0.0)
        if isinstance(device, Mosfet):
            vgs_last.append(0.0)
            vds_last.append(0.0)
        elif isinstance(device, Diode):
            device._v_last = state.v(device._idx[0]) - state.v(device._idx[1])
        elif not isinstance(device, Capacitor):
            device.init_state(state)
    builder.cap_bank.v_prev = np.array(v_prev, dtype=float)
    builder.cap_bank.i_prev = np.array(i_prev, dtype=float)
    if builder.mosfet_bank is not None:
        builder.mosfet_bank.newton.vgs_last = np.array(vgs_last)
        builder.mosfet_bank.newton.vds_last = np.array(vds_last)


def companion_slots(builder: MNABuilder) -> dict:
    """Device name -> the slots of its capacitances in the builder's
    companion bank (zero capacitances have none)."""
    slots: dict[str, list] = {}
    for device in builder.devices:
        for entry in device.companion_entries():
            if entry[0] > 0.0:
                slots.setdefault(device.name, []).append(
                    sum(map(len, slots.values())))
    return slots


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

def grounded_circuit() -> Circuit:
    """MOSFETs with each terminal grounded somewhere, capacitances with
    either or both terminals grounded, ``ic=`` on floating and grounded
    capacitors, diodes with and without junction capacitance and an
    inductor."""
    circuit = Circuit("grounded terminals")
    circuit.add_model(Model("nch", "nmos", **NMOS))
    circuit.add_model(Model("pch", "pmos", **PMOS))
    circuit.add_model(Model("dj", "d", **{"is": 1e-14, "cjo": 2e-13}))
    circuit.add_model(Model("dn", "d", **{"is": 1e-14}))
    circuit.add(VoltageSource("VDD", "vdd", "0", 5.0))
    circuit.add(VoltageSource("VIN", "in", "0", 2.0))
    circuit.add(Resistor("R1", "vdd", "a", 1e4))
    circuit.add(Resistor("R2", "a", "b", 1e4))
    circuit.add(Resistor("R3", "b", "0", 1e4))
    circuit.add(Mosfet("M1", "a", "in", "0", "0", "nch", ad=1e-11, pd=2e-5))
    circuit.add(Mosfet("M2", "0", "in", "b", "0", "nch", as_=1e-11, ps=2e-5))
    circuit.add(Mosfet("M3", "a", "0", "vdd", "vdd", "pch"))
    circuit.add(Mosfet("M4", "b", "a", "0", "b", "nch"))
    circuit.add(Mosfet("M5", "0", "0", "0", "0", "nch"))
    circuit.add(Capacitor("C1", "a", "0", 1e-12, ic=1.25))
    circuit.add(Capacitor("C2", "0", "b", 2e-12))
    circuit.add(Capacitor("C3", "a", "b", 3e-12, ic=-0.5))
    circuit.add(Capacitor("C4", "0", "0", 1e-12))
    circuit.add(Capacitor("C5", "a", "b", 0.0, ic=2.0))
    circuit.add(Diode("D1", "a", "b", "dj"))
    circuit.add(Diode("D2", "b", "0", "dn"))
    circuit.add(Inductor("L1", "b", "c", 1e-6, ic=1e-3))
    circuit.add(Resistor("R4", "c", "0", 50.0))
    return circuit


CIRCUITS = {"vco": build_vco, "grounded": grounded_circuit}


def assert_maps_equal(bank, oracle: dict) -> None:
    for name, expected in oracle.items():
        actual = getattr(bank, name)
        if isinstance(expected, tuple):
            assert len(actual) == len(expected), name
            pairs = zip(actual, expected)
        else:
            pairs = [(actual, expected)]
        for got, want in pairs:
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_mosfet_bank_maps_are_the_loop_built_maps(circuit):
    builder = MNABuilder(CIRCUITS[circuit]())
    bank = builder.mosfet_bank
    assert_maps_equal(bank, loop_built_mosfet_maps(bank.mosfets))


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_companion_bank_maps_are_the_loop_built_maps(circuit):
    builder = MNABuilder(CIRCUITS[circuit]())
    entries = [entry for device in builder.devices
               for entry in device.companion_entries()]
    assert_maps_equal(builder.cap_bank, loop_built_companion_maps(entries))


def test_the_grounded_circuit_drops_ground_entries():
    """The grounded fixture exercises the dropped entries: a fully
    grounded MOSFET and capacitor are members that stamp nothing, a zero
    capacitance is no member."""
    circuit = grounded_circuit()
    builder = MNABuilder(circuit)
    bank = builder.mosfet_bank
    grounded = bank.mosfets.index(circuit.device("M5"))
    assert grounded not in np.concatenate([bank._m_flat % len(bank),
                                           bank._r_flat % len(bank)])
    caps = builder.cap_bank
    slots = companion_slots(builder)
    slot, = slots["C4"]
    assert slot not in caps._m_cap and slot not in caps._r_cap
    assert "C5" not in slots
    assert len(caps) == sum(map(len, slots.values()))


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------

def scrambled_state(builder: MNABuilder, use_ic: bool, seed: int):
    """A transient state at a random solution, with every history the
    initialisation overwrites first set to other numbers."""
    rng = np.random.default_rng(seed)
    state = builder.new_state("tran")
    state.use_ic = use_ic
    state.x = rng.uniform(-2.0, 5.0, builder.size)
    caps = builder.cap_bank
    caps.v_prev = rng.standard_normal(len(caps))
    caps.i_prev = rng.standard_normal(len(caps))
    bank = builder.mosfet_bank
    bank.newton.vgs_last = rng.standard_normal(len(bank))
    bank.newton.vds_last = rng.standard_normal(len(bank))
    for device in builder.devices:
        if isinstance(device, Diode):
            device._v_last = float(rng.standard_normal())
    return state


def history_snapshot(builder: MNABuilder) -> dict:
    """Every number the initialisation sets, as bytes: the banks' arrays
    and the history diodes and inductors keep themselves."""
    caps, bank = builder.cap_bank, builder.mosfet_bank
    snapshot = {"caps": caps.v_prev.tobytes() + caps.i_prev.tobytes(),
                "mosfets": (bank.newton.vgs_last.tobytes()
                            + bank.newton.vds_last.tobytes())}
    for device in builder.devices:
        if isinstance(device, Diode):
            snapshot[device.name] = np.array([device._v_last]).tobytes()
        elif isinstance(device, Inductor):
            snapshot[device.name] = np.array(
                [device._i_prev, device._v_prev]).tobytes()
    return snapshot


@pytest.mark.parametrize("use_ic", [False, True], ids=["op", "use_ic"])
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_init_state_is_the_per_device_loop(circuit, use_ic):
    bank_built = MNABuilder(CIRCUITS[circuit]())
    looped = MNABuilder(CIRCUITS[circuit]())
    state = scrambled_state(bank_built, use_ic, seed=11)
    oracle_state = scrambled_state(looped, use_ic, seed=11)
    bank_built.init_state(state)
    per_device_init_state(looped, oracle_state)
    assert history_snapshot(bank_built) == history_snapshot(looped)


def test_capacitor_ic_is_honoured_only_under_use_ic():
    for use_ic, expected in ((True, 1.25), (False, None)):
        builder = MNABuilder(grounded_circuit())
        state = scrambled_state(builder, use_ic, seed=3)
        builder.init_state(state)
        cap = builder.circuit.device("C1")
        if expected is None:
            expected = state.v(cap._idx[0])
        slot, = companion_slots(builder)["C1"]
        assert builder.cap_bank.v_prev[slot] == expected
        assert builder.cap_bank.i_prev[slot] == 0.0


# ---------------------------------------------------------------------------
# Dense scatter and solve
# ---------------------------------------------------------------------------

def reference_solve(matrix: np.ndarray, rhs: np.ndarray):
    """MNASystem.solve as it was: np.linalg.solve, its errors mapped."""
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        return SingularMatrixError(f"MNA matrix is singular: {exc}")
    if not np.isfinite(solution).all():
        return SingularMatrixError("MNA solution contains NaN/Inf")
    return solution


def outcome(system):
    try:
        return system.solve()
    except SingularMatrixError as exc:
        return exc


def same_outcome(got, want) -> bool:
    if isinstance(want, SingularMatrixError):
        return isinstance(got, SingularMatrixError) and str(got) == str(want)
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def random_system(rng, size: int, dtype) -> MNASystem:
    system = MNASystem(size, dtype=dtype)
    scale = 10.0 ** rng.integers(-12, 3, (size, size))
    system.matrix[...] = rng.standard_normal((size, size)) * scale
    system.rhs[...] = rng.standard_normal(size)
    if dtype is complex:
        system.matrix[...] += 1j * rng.standard_normal((size, size)) * scale
        system.rhs[...] += 1j * rng.standard_normal(size)
    return system


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_solve_is_numpy_linalg_solve(dtype):
    rng = np.random.default_rng(1995)
    for size in (1, 2, 5, 19, 40):
        for _ in range(5):
            system = random_system(rng, size, dtype)
            want = reference_solve(system.matrix.copy(), system.rhs.copy())
            assert same_outcome(outcome(system), want)


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("poison", ["zero", "zero-row", "nan", "inf"])
def test_failed_solves_raise_what_they_raised(dtype, poison):
    rng = np.random.default_rng(7)
    system = random_system(rng, 6, dtype)
    if poison == "zero":
        system.matrix[...] = 0.0
    elif poison == "zero-row":
        system.matrix[2] = 0.0
    elif poison == "nan":
        system.matrix[3, 1] = np.nan
    else:
        system.rhs[4] = np.inf
    want = reference_solve(system.matrix.copy(), system.rhs.copy())
    assert isinstance(want, SingularMatrixError)
    assert same_outcome(outcome(system), want)


def test_stacked_fallback_raises_what_each_member_raised():
    rng = np.random.default_rng(5)
    stack = StackedMNASystem(5, 6)
    for member in stack.members:
        member.matrix[...] = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        member.rhs[...] = rng.standard_normal(6)
    stack.members[1].matrix[...] = 0.0
    stack.members[2].matrix[0, 0] = np.nan
    stack.members[4].rhs[3] = np.inf
    wants = [reference_solve(member.matrix.copy(), member.rhs.copy())
             for member in stack.members]
    outcomes = stack.solve()
    assert all(same_outcome(got, want) for got, want in zip(outcomes, wants))
    assert [isinstance(o, SingularMatrixError) for o in outcomes] == \
        [False, True, True, False, True]


def test_ac_systems_solve_in_complex():
    """An AC system is complex: a real signature would drop the imaginary
    parts (or refuse the cast)."""
    system = MNASystem(2, dtype=complex)
    system.matrix[...] = [[1.0 + 1.0j, 0.0], [0.0, 2.0j]]
    system.rhs[...] = [1.0j, 2.0]
    solution = system.solve()
    assert solution.dtype == complex
    assert solution.tobytes() == np.linalg.solve(system.matrix,
                                                 system.rhs).tobytes()


def test_flat_scatter_is_the_two_dimensional_add_at():
    rng = np.random.default_rng(42)
    size = 9
    rows = rng.integers(0, size, 300)
    cols = rng.integers(0, size, 300)
    other_cols = rng.integers(0, size, 300)
    system = MNASystem(size)
    stack = StackedMNASystem(3, size)
    stacked_rows = rows + size * rng.integers(0, 3, 300)
    matrix = np.zeros((size, size))
    stacked = np.zeros((3 * size, size))
    for _ in range(3):
        values = rng.standard_normal(300) * 10.0 ** rng.integers(-9, 9, 300)
        # The same rows with other columns must not reuse a flat index.
        for these_cols in (cols, other_cols):
            system.scatter(rows, these_cols, values)
            np.add.at(matrix, (rows, these_cols), values)
            stack.scatter(stacked_rows, these_cols, values)
            np.add.at(stacked, (stacked_rows, these_cols), values)
    assert system.matrix.tobytes() == matrix.tobytes()
    assert stack.matrices.reshape(3 * size, size).tobytes() == \
        stacked.tobytes()
    member = stack.members[1]
    member.scatter(rows, cols, values)
    np.add.at(stacked[size:2 * size], (rows, cols), values)
    assert member.matrix.tobytes() == stacked[size:2 * size].tobytes()
