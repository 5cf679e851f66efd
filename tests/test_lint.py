"""Tests for the static analyzer (``repro.lint``) and its enforcement.

Covers the three layers the preflight feature spans (see ``docs/lint.md``):

* the rule engine itself — every netlist ERC and fault-list rule on a
  hand-built defective circuit, plus configuration (disable, severity
  override) and the text pre-pass,
* **rule <-> runtime agreement** — the topologies ``vsource-loop`` flags
  are exactly the ones whose MNA solve raises
  :class:`~repro.errors.SingularMatrixError`, on the nominal netlist and
  on a fault-injected one,
* the campaign wiring — ``FaultSimulator.plan(preflight=...)`` refusal
  with the *full* diagnostic list, fingerprint/checkpoint round-trips,
  telemetry, and the ``python -m repro.anafault lint`` CLI with its JSON
  report,
* the repo-lint tool (``tools/repro_lint.py``) self-check and its two AST
  rules on synthetic sources.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re

import pytest

from repro.anafault import CampaignSettings, FaultSimulator, ToleranceSettings
from repro.anafault.checkpoint import _settings_text, campaign_fingerprint
from repro.anafault.injection import FaultInjector
from repro.anafault.models import FaultModelOptions
from repro.circuits import build_rc_lowpass, build_vco
from repro.errors import (CampaignError, LintError, PreflightError,
                          SingularMatrixError)
from repro.lift.faultlist import FaultList
from repro.lift.faults import (BridgingFault, OpenFault, ParametricFault,
                               SplitNodeFault)
from repro.lint import (Diagnostic, LintConfig, LintReport, SEVERITY_ERROR,
                        SEVERITY_WARNING, all_rules, get_rule, lint_circuit,
                        lint_fault_list, lint_netlist_text,
                        preflight_campaign)
from repro.spice import SimulationOptions
from repro.spice.analysis.mna import MNABuilder
from repro.spice.devices.controlled import (CurrentControlledCurrentSource,
                                            VoltageControlledVoltageSource)
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.netlist import Circuit, Model

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _codes(report) -> list:
    return [d.code for d in report]


def _divider() -> Circuit:
    """A clean V-R-R divider: zero findings expected."""
    circuit = Circuit("divider")
    circuit.add(VoltageSource("V1", "in", "0", 1.0))
    circuit.add(Resistor("R1", "in", "out", 1e3))
    circuit.add(Resistor("R2", "out", "0", 1e3))
    return circuit


def _solve_op(circuit: Circuit):
    """One raw MNA operating-point solve — no gmin/source stepping
    fallbacks, so a singular topology surfaces as the undecorated
    :class:`~repro.errors.SingularMatrixError`."""
    builder = MNABuilder(circuit, SimulationOptions())
    state = builder.new_state("op")
    builder.assemble_constant(state)
    return builder.build_iteration(state).solve()


class TestDiagnostics:
    def test_format_and_json(self):
        diagnostic = Diagnostic(code="x", severity=SEVERITY_ERROR,
                                location="device R1", message="broken",
                                fixit="glue it")
        assert diagnostic.format() == \
            "error[x] device R1: broken (fix: glue it)"
        assert diagnostic.to_json()["severity"] == "error"
        assert diagnostic.is_error

    def test_report_sorts_errors_first(self):
        report = LintReport([
            Diagnostic("b", SEVERITY_WARNING, "w", "warn later"),
            Diagnostic("a", SEVERITY_ERROR, "e", "error first"),
        ])
        assert [d.severity for d in report.diagnostics] == \
            ["error", "warning"]
        assert report.summary() == "1 error(s), 1 warning(s)"
        assert report.has_errors
        payload = report.to_json()
        assert payload["errors"] == 1 and payload["warnings"] == 1

    def test_rule_registry_is_closed(self):
        codes = [rule.code for rule in all_rules()]
        assert len(codes) == len(set(codes))
        assert "vsource-loop" in codes and "fault-topology" in codes
        with pytest.raises(LintError):
            get_rule("no-such-rule")

    def test_config_validates_codes_and_severities(self):
        with pytest.raises(LintError):
            LintConfig(disabled=frozenset({"no-such-rule"})).validate()
        with pytest.raises(LintError):
            LintConfig(severities={"vsource-loop": "fatal"}).validate()


class TestNetlistRules:
    def test_clean_circuit_has_no_findings(self):
        assert _codes(lint_circuit(_divider())) == []
        assert _codes(lint_circuit(build_vco())) == []

    def test_floating_node_is_a_warning(self):
        circuit = _divider()
        circuit.add(Resistor("R3", "out", "dangle", 1e3))
        report = lint_circuit(circuit)
        assert _codes(report) == ["floating-node"]
        assert not report.has_errors
        assert "dangle" in report.diagnostics[0].message

    def test_no_dc_path_island(self):
        circuit = _divider()
        # A capacitively-coupled island: conducting at AC, floating at DC.
        circuit.add(Capacitor("C1", "out", "isl_a", 1e-9))
        circuit.add(Resistor("R3", "isl_a", "isl_b", 1e3))
        circuit.add(Resistor("R4", "isl_b", "isl_a", 1e3))
        report = lint_circuit(circuit)
        assert "no-dc-path" in _codes(report)
        assert not report.has_errors

    def test_vsource_loop_parallel_sources(self):
        circuit = _divider()
        circuit.add(VoltageSource("V2", "in", "0", 2.0))
        report = lint_circuit(circuit)
        assert "vsource-loop" in _codes(report)
        assert report.has_errors

    def test_vsource_self_loop(self):
        circuit = _divider()
        circuit.add(VoltageSource("V2", "x", "x", 1.0))
        circuit.add(Resistor("R3", "x", "0", 1e3))
        assert "vsource-loop" in _codes(lint_circuit(circuit))

    def test_inductor_closes_dc_loop(self):
        from repro.spice.devices.passives import Inductor
        circuit = _divider()
        circuit.add(Inductor("L1", "in", "0", 1e-3))
        assert "vsource-loop" in _codes(lint_circuit(circuit))

    def test_isource_cutset(self):
        circuit = _divider()
        # Current source into a two-node island with no return path.
        circuit.add(CurrentSource("I1", "isl_a", "isl_b", 1e-3))
        circuit.add(Resistor("R3", "isl_a", "isl_b", 1e3))
        report = lint_circuit(circuit)
        assert "isource-cutset" in _codes(report)
        assert report.has_errors

    def test_undefined_model_and_kind(self):
        circuit = _divider()
        circuit.add(Mosfet("M1", "in", "out", "0", "0", "ghost"))
        assert "undefined-model" in _codes(lint_circuit(circuit))
        circuit.add_model(Model("ghost", "d"))
        assert "model-kind" in _codes(lint_circuit(circuit))

    def test_undefined_control(self):
        circuit = _divider()
        circuit.add(CurrentControlledCurrentSource("F1", "out", "0",
                                                   "Vnope", 2.0))
        report = lint_circuit(circuit)
        assert _codes(report) == ["undefined-control"]
        circuit.remove("F1")
        # R1 exists but introduces no branch current.
        circuit.add(CurrentControlledCurrentSource("F2", "out", "0",
                                                   "R1", 2.0))
        assert _codes(lint_circuit(circuit)) == ["undefined-control"]

    def test_negative_parameter_after_mutation(self):
        circuit = _divider()
        circuit.device("R1").resistance = -5.0  # what a bad fault does
        assert "negative-parameter" in _codes(lint_circuit(circuit))

    def test_zero_geometry(self):
        circuit = _divider()
        circuit.add_model(Model("nch", "nmos", vto=0.8, kp=5e-5))
        circuit.add(Mosfet("M1", "in", "out", "0", "0", "nch", w=0.0))
        assert "zero-geometry" in _codes(lint_circuit(circuit))

    def test_disable_and_override(self):
        circuit = _divider()
        circuit.add(VoltageSource("V2", "in", "0", 2.0))
        config = LintConfig(disabled=frozenset({"vsource-loop"}))
        assert _codes(lint_circuit(circuit, config)) == []
        config = LintConfig(severities={"vsource-loop": SEVERITY_WARNING})
        report = lint_circuit(circuit, config)
        assert _codes(report) == ["vsource-loop"]
        assert not report.has_errors


class TestNetlistText:
    def test_duplicate_device_reports_both_lines(self):
        text = ("title line\n"
                "R1 a 0 1k\n"
                "* comment\n"
                "r1 b 0 2k\n")
        circuit, report = lint_netlist_text(text)
        assert circuit is None  # the parser refuses the duplicate too
        codes = _codes(report)
        assert "duplicate-device" in codes and "parse-error" in codes
        duplicate = [d for d in report if d.code == "duplicate-device"][0]
        assert "line 2" in duplicate.message
        assert "case collision" in duplicate.message

    def test_subckt_scope_does_not_collide(self):
        text = ("title line\n"
                "R1 a 0 1k\n"
                ".subckt cell p q\n"
                "R1 p q 1k\n"
                ".ends\n")
        _, report = lint_netlist_text(text)
        assert "duplicate-device" not in _codes(report)

    def test_parse_error_is_a_diagnostic(self):
        circuit, report = lint_netlist_text("title\nQ1 not supported\n")
        assert circuit is None
        assert _codes(report) == ["parse-error"]

    def test_clean_text_runs_circuit_erc(self):
        text = ("divider\n"
                "V1 in 0 DC 1\n"
                "V2 in 0 DC 2\n"
                "R1 in 0 1k\n")
        circuit, report = lint_netlist_text(text)
        assert circuit is not None
        assert "vsource-loop" in _codes(report)


class TestFaultRules:
    def test_unknown_sites(self):
        circuit = _divider()
        faults = [
            BridgingFault(1, net_a="out", net_b="ghost"),
            OpenFault(2, device="R9", terminal="pos"),
            ParametricFault(3, device="R1", parameter="beta",
                            relative_change=0.5),
            SplitNodeFault(4, net="out", group_b=(("R9", "pos"),)),
        ]
        report = lint_fault_list(circuit, faults)
        site_errors = [d for d in report if d.code == "unknown-fault-site"]
        assert sorted(d.location for d in site_errors) == \
            ["fault #1", "fault #2", "fault #3", "fault #4"]

    def test_unknown_terminal_with_rcl_exemption(self):
        circuit = _divider()
        circuit.add_model(Model("nch", "nmos", vto=0.8, kp=5e-5))
        circuit.add(Mosfet("M1", "in", "out", "0", "0", "nch"))
        faults = [
            OpenFault(1, device="R1", terminal="anything"),  # coerced
            OpenFault(2, device="M1", terminal="emitter"),
        ]
        report = lint_fault_list(circuit, faults)
        terminal = [d for d in report if d.code == "unknown-terminal"]
        assert [d.location for d in terminal] == ["fault #2"]
        assert "drain" in terminal[0].message

    def test_duplicate_fault_id(self):
        circuit = _divider()
        faults = [BridgingFault(7, net_a="in", net_b="out"),
                  OpenFault(7, device="R1", terminal="pos")]
        report = lint_fault_list(circuit, faults)
        duplicates = [d for d in report if d.code == "duplicate-fault-id"]
        assert len(duplicates) == 1
        assert "bridge, open" in duplicates[0].message

    def test_noop_faults_warn(self):
        circuit = _divider()
        faults = [
            ParametricFault(1, device="R1", parameter="value",
                            relative_change=0.0),
            BridgingFault(2, net_a="gnd", net_b="0"),  # ground aliases
        ]
        report = lint_fault_list(circuit, faults)
        noops = [d for d in report if d.code == "noop-fault"]
        assert sorted(d.location for d in noops) == \
            ["fault #1", "fault #2"]
        assert not report.has_errors

    def test_equivalent_faults_flagged_for_collapse(self):
        circuit = _divider()
        faults = [BridgingFault(1, net_a="in", net_b="out"),
                  BridgingFault(2, net_a="out", net_b="in")]
        report = lint_fault_list(circuit, faults)
        equivalent = [d for d in report if d.code == "equivalent-faults"]
        assert len(equivalent) == 1
        assert "#1" in equivalent[0].message
        assert "#2" in equivalent[0].message
        assert "merge_equivalent" in equivalent[0].fixit

    def test_equivalent_faults_agree_with_merge_equivalent(self):
        # Net names compare as nodes: OUT is out, gnd is 0.  The rule's
        # groups are exactly the ones merge_equivalent() collapses.
        circuit = _divider()
        faults = FaultList.from_faults([
            BridgingFault(1, net_a="OUT", net_b="in", origins=["1"]),
            BridgingFault(2, net_a="out", net_b="IN", origins=["2"]),
            BridgingFault(3, net_a="gnd", net_b="out", origins=["3"]),
            BridgingFault(4, net_a="0", net_b="out", origins=["4"]),
        ])
        merged = faults.merge_equivalent()
        assert len(merged) == 2
        merged_groups = {frozenset(int(o) for o in fault.origins)
                         for fault in merged}
        report = lint_fault_list(circuit, faults)
        flagged_groups = {
            frozenset(int(i) for i in re.findall(r"#(\d+)",
                                                 d.message.split(" share")[0]))
            for d in report if d.code == "equivalent-faults"}
        assert flagged_groups == merged_groups == {frozenset({1, 2}),
                                                   frozenset({3, 4})}

    def test_fault_topology_source_model_bridge(self):
        # A source-model bridge across V1 injects a 0 V source in parallel
        # with it: a voltage-source loop on the faulted netlist.
        circuit = _divider()
        fault = BridgingFault(1, net_a="in", net_b="0")
        report = lint_fault_list(circuit, [fault],
                                 FaultModelOptions.source())
        topology = [d for d in report if d.code == "fault-topology"]
        assert len(topology) == 1
        assert topology[0].severity == SEVERITY_ERROR
        assert "vsource-loop" in topology[0].message
        # The resistor model injects a 0.01 Ohm resistor instead: legal.
        report = lint_fault_list(circuit, [fault],
                                 FaultModelOptions.resistor())
        assert "fault-topology" not in _codes(report)

    def test_nominal_findings_are_subtracted(self):
        circuit = _divider()
        circuit.add(VoltageSource("V2", "in", "0", 2.0))  # nominal defect
        fault = ParametricFault(1, device="R1", parameter="value",
                                relative_change=0.5)
        report = lint_fault_list(circuit, [fault])
        assert "fault-topology" not in _codes(report)


class TestRuleRuntimeAgreement:
    """The acceptance check of the issue: the linter refuses exactly the
    topologies whose MNA solve raises ``SingularMatrixError``."""

    def test_vsource_loop_lint_and_runtime_agree(self):
        circuit = _divider()
        assert _codes(lint_circuit(circuit)) == []
        _solve_op(circuit)  # nominal divider solves fine

        circuit.add(VoltageSource("V2", "in", "0", 2.0))
        report = lint_circuit(circuit)
        assert "vsource-loop" in _codes(report)
        with pytest.raises(SingularMatrixError):
            _solve_op(circuit)

    def test_faulted_topology_lint_and_runtime_agree(self):
        circuit = _divider()
        fault = BridgingFault(1, net_a="in", net_b="0")
        options = FaultModelOptions.source()
        report = lint_fault_list(circuit, [fault], options)
        assert "fault-topology" in _codes(report)

        faulty = FaultInjector(circuit, options).inject(fault)
        with pytest.raises(SingularMatrixError):
            _solve_op(faulty)

    @pytest.mark.filterwarnings("error")
    def test_campaign_survives_the_fault_the_preflight_flags(self):
        # The runtime records the refused fault as detected-by-failure;
        # the preflight names the cause *before* any transient runs.
        circuit = build_rc_lowpass(capacitance=1e-6)
        faults = FaultList("loop", [BridgingFault(1, probability=0.5,
                                                  net_a="in", net_b="0")])
        settings = CampaignSettings(
            tstop=5e-3, tstep=5e-5, observation_nodes=("out",),
            tolerances=ToleranceSettings(0.3, 2e-4),
            fault_model=FaultModelOptions.source())
        with pytest.raises(PreflightError):
            # plan(preflight=...) pins the mode into the settings (like
            # the solver_backend override), so use a throwaway simulator.
            FaultSimulator(circuit, faults, settings).plan(
                preflight="error")
        result = FaultSimulator(circuit, faults, settings).run()  # warn
        assert result.records[0].status in ("detected", "injection_failed")
        assert [d.code for d in result.preflight_diagnostics] == \
            ["fault-topology"]


class TestCampaignPreflight:
    def _simulator(self, with_defects=True) -> FaultSimulator:
        circuit = build_rc_lowpass(capacitance=1e-6)
        faults = FaultList("preflight")
        if with_defects:
            faults.add(BridgingFault(1, probability=0.5, net_a="out",
                                     net_b="ghost"))
            faults.add(OpenFault(1, probability=0.4, device="R9",
                                 terminal="pos"))
        else:
            faults.add(BridgingFault(1, probability=0.5, net_a="out",
                                     net_b="0"))
        settings = CampaignSettings(
            tstop=5e-3, tstep=5e-5, observation_nodes=("out",),
            tolerances=ToleranceSettings(0.3, 2e-4))
        return FaultSimulator(circuit, faults, settings)

    def test_error_mode_reports_every_diagnostic(self):
        simulator = self._simulator()
        with pytest.raises(PreflightError) as excinfo:
            simulator.plan(preflight="error")
        error = excinfo.value
        # ghost net + unknown device + duplicate id: the FULL list, not
        # just the first finding.
        codes = sorted(d.code for d in error.diagnostics)
        assert codes == ["duplicate-fault-id", "unknown-fault-site",
                         "unknown-fault-site"]
        for code in set(codes):
            assert code in str(error)
        assert isinstance(error, CampaignError)

    def test_warn_mode_records_diagnostics(self):
        simulator = self._simulator()
        plan = simulator.plan(preflight="warn")
        assert plan.preflight == "warn"
        assert len(plan.diagnostics) == 3
        result = simulator.run()
        telemetry = result.telemetry()
        assert telemetry["preflight"] == "warn"
        assert telemetry["preflight_errors"] == 3
        assert telemetry["preflight_warnings"] == 0

    def test_off_mode_skips_the_analysis(self):
        plan = self._simulator().plan(preflight="off")
        assert plan.preflight == "off"
        assert plan.diagnostics == ()

    def test_unknown_mode_refused(self):
        with pytest.raises(CampaignError):
            self._simulator().plan(preflight="maybe")

    def test_default_fingerprint_unchanged_by_the_upgrade(self):
        # `preflight` joined CampaignSettings after checkpoints existed in
        # the wild; at the default it must not appear in the fingerprint.
        assert "preflight" not in _settings_text(CampaignSettings())
        pinned = CampaignSettings(preflight="error")
        assert "preflight='error'" in _settings_text(pinned)

    def test_checkpoint_resume_round_trip(self, tmp_path):
        simulator = self._simulator(with_defects=False)
        path = tmp_path / "preflight.jsonl"
        first = simulator.run(checkpoint=path)
        assert first.checkpoint_skipped == 0
        resumed = self._simulator(with_defects=False).run(checkpoint=path)
        assert resumed.checkpoint_skipped == len(resumed.fault_list)

    def test_pinned_preflight_changes_the_fingerprint(self):
        simulator = self._simulator(with_defects=False)
        default = campaign_fingerprint(simulator.circuit,
                                       simulator.fault_list,
                                       simulator.settings)
        pinned = campaign_fingerprint(
            simulator.circuit, simulator.fault_list,
            CampaignSettings(tstop=5e-3, tstep=5e-5,
                             observation_nodes=("out",),
                             tolerances=ToleranceSettings(0.3, 2e-4),
                             preflight="error"))
        assert default != pinned


class TestLintCLI:
    """`python -m repro.anafault lint` driven in-process through main()."""

    def _main(self, *args):
        import io
        from repro.anafault.cli import main
        out = io.StringIO()
        code = main([str(a) for a in args], out=out)
        return code, out.getvalue()

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_clean_netlist_exits_zero(self, tmp_path):
        netlist = self._write(tmp_path, "ok.cir",
                              "divider\nV1 in 0 DC 1\nR1 in out 1k\n"
                              "R2 out 0 1k\n")
        code, output = self._main("lint", netlist)
        assert code == 0
        assert "0 error(s), 0 warning(s)" in output

    def test_vsource_loop_named_and_refused(self, tmp_path):
        netlist = self._write(tmp_path, "loop.cir",
                              "loop\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n")
        code, output = self._main("lint", netlist)
        assert code == 1
        assert "vsource-loop" in output

    def test_json_report_golden(self, tmp_path):
        netlist = self._write(tmp_path, "loop.cir",
                              "loop\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n")
        code, output = self._main("lint", netlist, "--format=json")
        assert code == 1
        payload = json.loads(output)
        assert payload["errors"] == 1 and payload["warnings"] == 0
        [diagnostic] = payload["diagnostics"]
        assert diagnostic["code"] == "vsource-loop"
        assert diagnostic["severity"] == "error"
        assert diagnostic["location"] == "device V2"
        assert diagnostic["fixit"]
        assert sorted(diagnostic) == ["code", "fixit", "location",
                                      "message", "severity"]

    def test_fault_list_checked_when_given(self, tmp_path):
        netlist = self._write(tmp_path, "ok.cir",
                              "divider\nV1 in 0 DC 1\nR1 in out 1k\n"
                              "R2 out 0 1k\n")
        faults = FaultList("cli", [BridgingFault(1, net_a="out",
                                                 net_b="ghost")])
        fault_path = tmp_path / "cli.lift"
        fault_path.write_text(faults.dumps(), encoding="utf-8")
        code, output = self._main("lint", netlist, fault_path)
        assert code == 1
        assert "unknown-fault-site" in output

    def test_missing_file_is_an_input_error(self, tmp_path):
        code, _ = self._main("lint", tmp_path / "absent.cir")
        assert code == 2

    def test_run_refuses_with_full_diagnostics(self, tmp_path, capsys):
        from repro.anafault.cli import main
        netlist = self._write(tmp_path, "loop.cir",
                              "loop\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n"
                              ".tran 5e-5 5e-3\n")
        faults = FaultList("cli", [BridgingFault(1, net_a="a",
                                                 net_b="ghost")])
        fault_path = tmp_path / "cli.lift"
        fault_path.write_text(faults.dumps(), encoding="utf-8")
        code = main(["run", str(netlist), str(fault_path),
                     "--observe", "a"])
        assert code == 2
        stderr = capsys.readouterr().err
        # Every diagnostic is listed in the refusal, not just the first.
        assert "vsource-loop" in stderr
        assert "unknown-fault-site" in stderr
        assert "preflight" in stderr

    def test_run_preflight_off_skips_checks(self, tmp_path):
        netlist = self._write(tmp_path, "warny.cir",
                              "divider\nV1 in 0 DC 1\nR1 in out 1k\n"
                              "R2 out 0 1k\nR3 out dangle 1k\n"
                              ".tran 5e-5 5e-3\n")
        faults = FaultList("cli", [BridgingFault(1, net_a="in",
                                                 net_b="out")])
        fault_path = tmp_path / "cli.lift"
        fault_path.write_text(faults.dumps(), encoding="utf-8")
        code, output = self._main("run", netlist, fault_path,
                                  "--observe", "out", "--preflight", "off")
        assert code == 0
        assert "preflight:" not in output
        code, output = self._main("run", netlist, fault_path,
                                  "--observe", "out", "--preflight", "warn")
        assert code == 0
        assert "preflight: warning[floating-node]" in output


class TestReproLintTool:
    """The custom AST checker enforced by CI."""

    @pytest.fixture(scope="class")
    def tool(self):
        spec = importlib.util.spec_from_file_location(
            "repro_lint", ROOT / "tools" / "repro_lint.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_source_tree_is_clean(self, tool, capsys):
        assert tool.main([str(ROOT / "src" / "repro")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_error_hierarchy_is_discovered(self, tool):
        names = tool.repro_error_names()
        assert {"ReproError", "PreflightError", "SingularMatrixError",
                "LintError"} <= names
        assert "ValueError" not in names

    def test_raise_type_flagged_and_suppressed(self, tool, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise ValueError('x')\n")
        findings = tool.check_file(bad, tool.repro_error_names())
        assert [f[2] for f in findings] == ["raise-type"]
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def f(exc):\n"
            "    raise exc\n"  # re-raise: type not statically visible
            "def g():\n"
            "    raise ValueError('x')  # repro-lint: allow=raise-type\n"
            "def h():\n"
            "    raise NotImplementedError\n"
            "def i():\n"
            "    raise PreflightError('refused')\n")
        assert tool.check_file(ok, tool.repro_error_names()
                               | {"NotImplementedError"}) == []

    def test_scatter_seam_flagged_outside_backends(self, tool, tmp_path):
        source = ("import numpy as np\n"
                  "def stamp(m, i, v):\n"
                  "    np.add.at(m, i, v)\n")
        elsewhere = tmp_path / "kernels.py"
        elsewhere.write_text(source)
        findings = tool.check_file(elsewhere, tool.repro_error_names())
        assert [f[2] for f in findings] == ["scatter-seam"]
        seam = tmp_path / "backends.py"
        seam.write_text(source)
        assert tool.check_file(seam, tool.repro_error_names()) == []


class TestExampleNetlists:
    """The committed example inputs must stay lint-clean (CI runs the
    same check through `make lint-examples`)."""

    def test_examples_are_clean(self):
        for path in sorted((ROOT / "examples" / "netlists").glob("*.cir")):
            _, report = lint_netlist_text(
                path.read_text(encoding="utf-8"))
            assert _codes(report) == [], f"{path.name}: {_codes(report)}"

    def test_vco_fault_list_is_clean(self):
        netlist = ROOT / "examples" / "netlists" / "vco.cir"
        circuit, _ = lint_netlist_text(
            netlist.read_text(encoding="utf-8"))
        faults = FaultList.loads(
            (ROOT / "examples" / "netlists" / "vco.lift")
            .read_text(encoding="utf-8"))
        report = preflight_campaign(circuit, faults)
        assert _codes(report) == []
