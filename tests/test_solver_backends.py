"""Sparse-vs-dense solver backend tests.

Covers the PR that made the linear solver of the MNA kernel pluggable:
automatic selection by matrix size, explicit overrides down through the
campaign layer, waveform equivalence of the two backends on linear and
Newton paths (including the paper's VCO and a sampled fault set), and the
COO→CSC assembly machinery of the sparse system itself.
"""

import numpy as np
import pytest

from repro.anafault import (CampaignSettings, FaultInjector, FaultSimulator,
                            PoolExecutor, ToleranceSettings)
from repro.circuits import build_rc_ladder, build_vco, nominal_transient_settings
from repro.errors import AnalysisError, SingularMatrixError
from repro.lift import BridgingFault, FaultList, OpenFault
from repro.spice import TransientAnalysis
from repro.spice.analysis.backends import (
    SPARSE_AUTO_THRESHOLD,
    DenseSolverBackend,
    SparseMNASystem,
    SparseSolverBackend,
    make_lu_solver,
    select_backend,
    sparse_available,
)
from repro.spice.analysis.mna import MNABuilder

pytestmark = pytest.mark.skipif(not sparse_available(),
                                reason="scipy.sparse is not importable")


class TestSelection:
    def test_auto_threshold(self):
        assert select_backend(SPARSE_AUTO_THRESHOLD - 1).name == "dense"
        assert select_backend(SPARSE_AUTO_THRESHOLD).name == "sparse"
        assert select_backend(8, None).name == "dense"

    def test_explicit_choice(self):
        assert isinstance(select_backend(8, "dense"), DenseSolverBackend)
        assert isinstance(select_backend(8, "sparse"), SparseSolverBackend)
        # Forcing sparse ignores the size threshold entirely.
        assert select_backend(2, "sparse").name == "sparse"

    def test_unknown_choice_rejected(self):
        with pytest.raises(AnalysisError, match="unknown solver backend"):
            select_backend(8, "umfpack")

    def test_builder_accepts_backend_instance(self):
        builder = MNABuilder(build_rc_ladder(4),
                             solver_backend=SparseSolverBackend())
        assert builder.backend.name == "sparse"
        assert isinstance(builder._base, SparseMNASystem)

    def test_transient_records_choice(self):
        circuit = build_rc_ladder(4)
        auto = TransientAnalysis(circuit, 1e-7, 1e-8).run()
        assert auto.stats["solver_backend"] == "dense"  # far below threshold
        assert auto.stats["matrix_size"] == 6
        forced = TransientAnalysis(build_rc_ladder(4), 1e-7, 1e-8,
                                   solver_backend="sparse").run()
        assert forced.stats["solver_backend"] == "sparse"
        assert forced.stats["linear_bypass"]

    def test_large_circuit_auto_selects_sparse(self):
        sections = SPARSE_AUTO_THRESHOLD  # size = sections + 2 > threshold
        result = TransientAnalysis(build_rc_ladder(sections),
                                   5e-7, 5e-8).run()
        assert result.stats["solver_backend"] == "sparse"


class TestWaveformEquivalence:
    def _run(self, circuit, backend, **kwargs):
        return TransientAnalysis(circuit, solver_backend=backend,
                                 **kwargs).run()

    def test_linear_bypass_equivalence(self):
        settings = dict(tstop=5e-6, tstep=5e-8)
        dense = self._run(build_rc_ladder(24), "dense", **settings)
        sparse = self._run(build_rc_ladder(24), "sparse", **settings)
        assert sparse.stats["linear_bypass"]
        for node in ("n1", "n12", "n24"):
            np.testing.assert_allclose(sparse[node].y, dense[node].y,
                                       rtol=0.0, atol=1e-9)

    def test_vco_nominal_equivalence(self):
        """Acceptance criterion: ≤1e-6 V agreement on the paper's nominal
        VCO transient (the fig. 3 waveform), full 400-step run."""
        settings = nominal_transient_settings()
        dense = self._run(build_vco(), "dense", **settings)
        sparse = self._run(build_vco(), "sparse", **settings)
        assert not sparse.stats["linear_bypass"]
        assert sparse.stats["solver_backend"] == "sparse"
        for node in ("11", "12", "13"):
            np.testing.assert_allclose(sparse[node].y, dense[node].y,
                                       rtol=0.0, atol=1e-6)
        # Same work profile: the backends change the solve, not the path.
        assert (sparse.stats["steps_accepted"]
                == dense.stats["steps_accepted"])

    def test_sampled_fault_set_equivalence(self):
        """Faulty circuits (bridge defects on VCO nets) must produce the
        same waveforms on both backends."""
        injector = FaultInjector(build_vco())
        faults = [
            BridgingFault(1, net_a="11", net_b="0", origin_layer="metal1"),
            BridgingFault(2, net_a="13", net_b="14"),
            BridgingFault(3, net_a="4", net_b="5"),
        ]
        settings = nominal_transient_settings(total_time=1e-6, steps=100)
        for fault in faults:
            faulty = injector.inject(fault)
            dense = self._run(faulty, "dense", **settings)
            sparse = self._run(injector.inject(fault), "sparse", **settings)
            np.testing.assert_allclose(sparse["11"].y, dense["11"].y,
                                       rtol=0.0, atol=1e-6)


class TestSparseSystem:
    def test_pattern_reused_across_assemblies(self):
        system = SparseMNASystem(2)
        for _ in range(2):
            system.clear()
            system.add(0, 0, 2.0)
            system.add(1, 1, 1.0)
            system.add(0, 0, 1.0)  # duplicate entry folds into one slot
            system.add_rhs(0, 3.0)
            np.testing.assert_allclose(system.solve(), [1.0, 0.0])
        first_pattern = system._pattern
        assert first_pattern is not None
        system.clear()
        system.add(0, 0, 1.0)
        system.add(1, 1, 1.0)
        system.add_rhs(1, 2.0)
        np.testing.assert_allclose(system.solve(), [0.0, 2.0])
        # A structural change forces a fresh symbolic pattern.
        assert system._pattern is not first_pattern

    def test_scatter_and_diagonal(self):
        system = SparseMNASystem(3)
        system.scatter(np.array([0, 1, 2]), np.array([0, 1, 2]),
                       np.array([1.0, 2.0, 4.0]))
        system.add_diagonal(np.arange(3), 1.0)
        system.scatter_rhs(np.array([0, 1, 2]), np.array([2.0, 3.0, 5.0]))
        np.testing.assert_allclose(system.solve(), [1.0, 1.0, 1.0])

    def test_copy_from_isolated(self):
        base = SparseMNASystem(1)
        base.add(0, 0, 1.0)
        base.add_rhs(0, 1.0)
        work = SparseMNASystem(1)
        work.copy_from(base)
        work.add(0, 0, 1.0)
        np.testing.assert_allclose(work.solve(), [0.5])
        np.testing.assert_allclose(base.solve(), [1.0])  # base untouched

    def test_singular_matrix_raises(self):
        system = SparseMNASystem(2)
        system.add(0, 0, 1.0)  # row/col 1 stays structurally empty
        system.add_rhs(0, 1.0)
        with pytest.raises(SingularMatrixError):
            system.solve()

    def test_complex_rejected(self):
        with pytest.raises(AnalysisError, match="real-valued"):
            SparseMNASystem(2, dtype=complex)


@pytest.mark.filterwarnings("error")
def test_exactly_singular_lu_raises_at_factorisation_without_a_warning():
    """SciPy reports an exactly zero pivot as a ``LinAlgWarning``; the
    dense LU solver turns it into ``SingularMatrixError`` before any
    solve, and lets no warning escape."""
    matrix = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError, match="cannot be factorised"):
        make_lu_solver(matrix)


class TestCampaignPlumbing:
    def _fault_list(self):
        faults = FaultList("rc faults")
        faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0",
                                 origin_layer="metal1"))
        faults.add(OpenFault(2, probability=1e-8, device="R1", terminal="pos"))
        faults.add(BridgingFault(3, probability=1e-9, net_a="in", net_b="out"))
        return faults

    def _settings(self, **overrides):
        settings = dict(tstop=5e-3, tstep=5e-5, use_ic=True,
                        observation_nodes=("out",),
                        tolerances=ToleranceSettings(0.3, 2e-4))
        settings.update(overrides)
        return CampaignSettings(**settings)

    def test_settings_carry_backend_to_telemetry(self, rc_circuit):
        result = FaultSimulator(
            rc_circuit, self._fault_list(),
            self._settings(solver_backend="sparse")).run()
        assert result.nominal_stats["solver_backend"] == "sparse"
        assert result.telemetry()["solver_backend"] == "sparse"

    def test_simulator_override_beats_settings(self, rc_circuit):
        simulator = FaultSimulator(rc_circuit, self._fault_list(),
                                   self._settings(),
                                   solver_backend="sparse")
        assert simulator.settings.solver_backend == "sparse"
        result = simulator.run()
        assert result.telemetry()["solver_backend"] == "sparse"

    def test_default_campaign_reports_dense(self, rc_circuit):
        result = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run()
        assert result.telemetry()["solver_backend"] == "dense"

    def test_backend_does_not_change_verdicts(self, rc_circuit):
        dense = FaultSimulator(rc_circuit, self._fault_list(),
                               self._settings(solver_backend="dense")).run()
        sparse = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings(solver_backend="sparse")).run()
        assert ([r.status for r in dense.records]
                == [r.status for r in sparse.records])
        for a, b in zip(dense.records, sparse.records):
            assert a.max_deviation == pytest.approx(b.max_deviation,
                                                    rel=1e-6, abs=1e-9)

    def test_parallel_workers_inherit_backend(self, rc_circuit):
        result = FaultSimulator(
            rc_circuit, self._fault_list(),
            self._settings(solver_backend="sparse")).run(executor=PoolExecutor(2))
        assert result.telemetry()["solver_backend"] == "sparse"
        assert all(r.status in ("detected", "undetected")
                   for r in result.records)
