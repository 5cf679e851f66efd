"""Defect-driven fault generation: generation, collapsing, sampling, CI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anafault import (
    CampaignSettings,
    CoverageEstimate,
    FaultGenOptions,
    FaultGenerator,
    FaultInjector,
    FaultSimulator,
    ToleranceSettings,
    estimate_coverage,
    estimate_from_result,
    generate_fault_list,
    sample_faults,
)
from repro.anafault.cli import main
from repro.anafault.faultgen import (
    META_CANDIDATES,
    META_COLLAPSED,
    META_DRAWS,
    META_SAMPLED,
    META_UNIVERSE,
    SOURCE_MONTE_CARLO,
    ImportanceSampler,
    collapse_candidates,
)
from repro.circuits import build_cmos_inverter, build_rc_lowpass
from repro.errors import FaultError
from repro.layout.textio import dumps as layout_dumps
from repro.lift import BridgingFault, FaultList, OpenFault
from repro.lint import lint_fault_list
from repro.spice import write_netlist


# ---------------------------------------------------------------------------
# Shared VCO generation artifacts (generation is the expensive step)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def vco_generator(vco_layout_pair, vco_extraction, vco_lvs):
    circuit, layout = vco_layout_pair
    return FaultGenerator(layout, vco_extraction, schematic=circuit,
                          lvs=vco_lvs)


@pytest.fixture(scope="module")
def vco_candidates(vco_generator):
    return vco_generator.generate()


@pytest.fixture(scope="module")
def vco_universe(vco_layout_pair, vco_extraction, vco_lvs):
    circuit, layout = vco_layout_pair
    return generate_fault_list(layout, vco_extraction, schematic=circuit,
                               lvs=vco_lvs)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

class TestGeneration:
    def test_enumerates_weighted_candidates(self, vco_generator,
                                            vco_candidates):
        assert vco_candidates
        assert all(c.weight >= 0.0 for c in vco_candidates)
        assert sum(c.weight for c in vco_candidates) > 0.0
        # Candidate templates carry electrical identity only; ids and
        # probabilities are filled in by the collapse stage.
        assert all(c.fault.fault_id == 0 for c in vco_candidates)
        report = vco_generator.report
        assert report.candidates == len(vco_candidates)
        assert report.bridge_pairs > 0
        assert report.open_sites > 0
        assert report.cut_sites > 0

    def test_irregular_geometry_uses_monte_carlo(self, vco_generator,
                                                 vco_candidates):
        # The VCO layout has diagonal (non-facing) pairs, so the
        # Monte-Carlo fallback must have produced some candidates.
        assert vco_generator.report.irregular_pairs > 0
        assert any(c.source == SOURCE_MONTE_CARLO for c in vco_candidates)

    def test_supply_to_supply_bridges_are_skipped(self, vco_generator,
                                                  vco_candidates):
        supplies = set(vco_generator.options.supply_nets)
        for candidate in vco_candidates:
            fault = candidate.fault
            if isinstance(fault, BridgingFault):
                assert not ({fault.net_a, fault.net_b} <= supplies)
        assert vco_generator.report.skipped_supply > 0


# ---------------------------------------------------------------------------
# Collapsing
# ---------------------------------------------------------------------------

class TestCollapsing:
    def test_reduction_meets_acceptance_floor(self, vco_candidates):
        classes, report = collapse_candidates(vco_candidates)
        assert report.candidates == len(vco_candidates)
        assert report.classes == len(classes)
        assert report.reduction >= 0.25
        # Collapsing must neither lose nor invent failure probability.
        assert sum(c.weight for c in classes) == pytest.approx(
            sum(c.weight for c in vco_candidates))
        assert sum(c.multiplicity for c in classes) == len(vco_candidates)
        for cls in classes:
            assert cls.representative.weight == pytest.approx(cls.weight)
            assert cls.representative.probability == pytest.approx(cls.weight)


RC_CIRCUIT = build_rc_lowpass(capacitance=1e-6)
INVERTER_CIRCUIT = build_cmos_inverter(input_voltage=0.0)


def _candidates_for(draw, circuit):
    from repro.anafault.faultgen import FaultCandidate

    nets = sorted({node for device in circuit.devices
                   for node in device.nodes})
    devices = [(device.name, len(device.nodes))
               for device in circuit.devices]

    def bridge():
        a, b = draw(st.lists(st.sampled_from(nets), min_size=2, max_size=2,
                             unique=True))
        layer = draw(st.sampled_from(["metal1", "poly", "ndiff"]))
        return FaultCandidate(
            fault=BridgingFault(0, net_a=a, net_b=b, origin_layer=layer,
                                description=f"bridge {a}-{b} on {layer}"),
            weight=draw(st.floats(min_value=1e-9, max_value=1e-3)),
            layer=layer, site=f"{layer}@site{draw(st.integers(0, 9))}")

    def open_fault():
        name, arity = draw(st.sampled_from(devices))
        terminals = (["drain", "gate", "source"] if arity >= 4
                     else ["pos", "neg"])
        terminal = draw(st.sampled_from(terminals))
        # Terminal names are case-insensitive for both the collapsing key
        # and the injector; mix cases to prove the two agree.
        if draw(st.booleans()):
            terminal = terminal.upper()
        return FaultCandidate(
            fault=OpenFault(0, device=name, terminal=terminal,
                            origin_layer="metal1",
                            description=f"open {name}.{terminal}"),
            weight=draw(st.floats(min_value=1e-9, max_value=1e-3)),
            layer="metal1", site=f"open@site{draw(st.integers(0, 9))}")

    count = draw(st.integers(min_value=1, max_value=10))
    return [draw(st.booleans()) and bridge() or open_fault()
            for _ in range(count)]


@st.composite
def candidate_lists(draw):
    circuit = draw(st.sampled_from([RC_CIRCUIT, INVERTER_CIRCUIT]))
    return circuit, _candidates_for(draw, circuit)


class TestCollapsingSoundness:
    @given(candidate_lists())
    @settings(max_examples=50, deadline=None)
    def test_members_inject_the_representative_circuit(self, case):
        """Collapsing is sound: every collapsed-away candidate builds the
        exact same faulty circuit as its class representative, so its
        campaign verdict is identical by construction."""
        circuit, candidates = case
        classes, report = collapse_candidates(candidates)
        assert sum(c.multiplicity for c in classes) == len(candidates)
        injector = FaultInjector(circuit)

        def netlist_body(fault):
            # Drop the title line: it embeds the fault description, which
            # legitimately differs between sites of one class.
            return write_netlist(injector.inject(fault)).splitlines()[1:]

        for cls in classes:
            reference = netlist_body(cls.representative)
            for member in cls.members:
                assert netlist_body(member.fault) == reference


# ---------------------------------------------------------------------------
# The layout -> fault list pipeline
# ---------------------------------------------------------------------------

class TestGenerateFaultList:
    def test_universe_from_layout_without_hand_written_faults(
            self, vco_universe):
        assert len(vco_universe) > 0
        assert int(vco_universe.metadata[META_CANDIDATES]) > len(vco_universe)
        assert int(vco_universe.metadata[META_COLLAPSED]) == len(vco_universe)
        assert int(vco_universe.metadata[META_SAMPLED]) == 0
        ids = [fault.fault_id for fault in vco_universe]
        assert ids == list(range(1, len(vco_universe) + 1))
        weights = [fault.effective_weight for fault in vco_universe]
        assert all(w > 0.0 for w in weights)
        assert weights == sorted(weights, reverse=True)
        assert all(fault.weight is not None for fault in vco_universe)

    def test_universe_round_trips_byte_faithfully(self, vco_universe):
        text = vco_universe.dumps()
        assert FaultList.loads(text).dumps() == text

    def test_sampled_list_carries_estimator_metadata(
            self, vco_layout_pair, vco_extraction, vco_lvs):
        circuit, layout = vco_layout_pair
        sampled = generate_fault_list(layout, vco_extraction,
                                      schematic=circuit, lvs=vco_lvs,
                                      sample=30, sample_seed=11)
        draws = str(sampled.metadata[META_DRAWS])
        total = sum(int(item.partition(":")[2])
                    for item in draws.split(","))
        assert total == 30
        assert int(sampled.metadata[META_SAMPLED]) == 30
        assert int(sampled.metadata[META_UNIVERSE]) > len(sampled)
        text = sampled.dumps()
        assert FaultList.loads(text).dumps() == text


# ---------------------------------------------------------------------------
# Importance sampling
# ---------------------------------------------------------------------------

class TestImportanceSampling:
    def test_seeded_sampler_is_deterministic(self, vco_universe):
        first = sample_faults(vco_universe, 40, seed=7)
        second = sample_faults(vco_universe, 40, seed=7)
        assert first.draws == second.draws
        assert first.fault_list.dumps() == second.fault_list.dumps()
        other = sample_faults(vco_universe, 40, seed=8)
        assert other.draws != first.draws

    def test_sampler_validates_the_universe(self):
        with pytest.raises(FaultError):
            ImportanceSampler([])
        duplicate = [BridgingFault(1, net_a="a", net_b="b", weight=1e-6),
                     BridgingFault(1, net_a="a", net_b="c", weight=1e-6)]
        with pytest.raises(FaultError):
            ImportanceSampler(duplicate)
        zero = [BridgingFault(1, net_a="a", net_b="b", weight=0.0)]
        with pytest.raises(FaultError):
            ImportanceSampler(zero)
        good = ImportanceSampler(
            [BridgingFault(1, net_a="a", net_b="b", weight=1e-6)])
        with pytest.raises(FaultError):
            good.sample(0)

    def test_draws_follow_the_weights(self, vco_universe):
        sample = sample_faults(vco_universe, 400, seed=5)
        counts = sample.counts()
        heaviest = vco_universe[0].fault_id
        lightest = vco_universe[len(vco_universe) - 1].fault_id
        assert counts.get(heaviest, 0) > counts.get(lightest, 0)


# ---------------------------------------------------------------------------
# Coverage estimation
# ---------------------------------------------------------------------------

class TestCoverageEstimate:
    def test_wilson_interval_basics(self):
        estimate = estimate_coverage([1, 1, 2, 3], detected={1},
                                     confidence=0.95)
        assert estimate.estimate == pytest.approx(0.5)
        assert 0.0 <= estimate.lower < 0.5 < estimate.upper <= 1.0
        assert estimate.contains(0.5)
        wide = estimate_coverage([1, 1, 2, 3], detected={1}, confidence=0.99)
        assert wide.upper - wide.lower > estimate.upper - estimate.lower
        assert "weighted coverage" in estimate.summary()

    def test_degenerate_and_invalid_inputs(self):
        full = estimate_coverage([1, 2], detected={1, 2})
        assert full.estimate == pytest.approx(1.0)
        assert full.upper == pytest.approx(1.0)
        none = estimate_coverage([1, 2], detected=set())
        assert none.estimate == pytest.approx(0.0)
        assert none.lower == pytest.approx(0.0)
        with pytest.raises(FaultError):
            estimate_coverage([], detected=set())
        with pytest.raises(FaultError):
            estimate_coverage([1], detected=set(), confidence=1.5)

    def test_estimate_from_result_needs_sampling_metadata(self, rc_circuit):
        faults = FaultList.from_faults(
            [BridgingFault(1, net_a="in", net_b="out", probability=1e-6)])

        class StubResult:
            fault_list = faults

            @staticmethod
            def detected_ids():
                return {1}

        with pytest.raises(FaultError):
            estimate_from_result(StubResult())

    def test_estimate_from_result_matches_direct_estimate(self, vco_universe):
        sample = sample_faults(vco_universe, 25, seed=13)
        detected = set(list(sample.counts())[:5])

        class StubResult:
            fault_list = sample.fault_list

            @staticmethod
            def detected_ids():
                return detected

        rebuilt = estimate_from_result(StubResult())
        direct = estimate_coverage(sample, detected)
        assert isinstance(rebuilt, CoverageEstimate)
        assert rebuilt.estimate == pytest.approx(direct.estimate)
        assert rebuilt.lower == pytest.approx(direct.lower)
        assert rebuilt.upper == pytest.approx(direct.upper)
        assert rebuilt.universe == sample.universe
        assert rebuilt.universe_weight == pytest.approx(
            sample.universe_weight)


# ---------------------------------------------------------------------------
# CI bounds against an exhaustive campaign (acceptance criterion)
# ---------------------------------------------------------------------------

class TestSampledCoverageBrackets:
    def test_interval_contains_exhaustive_weighted_coverage(
            self, vco_circuit, vco_universe):
        universe = vco_universe.top(24)
        settings_ = CampaignSettings(
            tstop=1e-6, tstep=1e-8, use_ic=True,
            observation_nodes=("11",),
            tolerances=ToleranceSettings(2.0, 0.2e-6),
            preflight="off")
        result = FaultSimulator(vco_circuit, universe, settings_).run()
        exhaustive = result.coverage().final_weighted_coverage()
        sample = sample_faults(universe, 120, seed=3)
        estimate = estimate_coverage(sample, result.detected_ids())
        assert estimate.contains(exhaustive), (
            f"{estimate.summary()} does not bracket {exhaustive:.3f}")

    def test_telemetry_reports_faultgen_counters(self, rc_circuit):
        faults = FaultList.from_faults(
            [BridgingFault(1, net_a="in", net_b="out", probability=0.5,
                           weight=0.5)],
            metadata={META_CANDIDATES: "10", META_COLLAPSED: "3",
                      META_SAMPLED: "2"})
        settings_ = CampaignSettings(tstop=5e-3, tstep=5e-5, use_ic=True,
                                     observation_nodes=("out",),
                                     tolerances=ToleranceSettings(0.3, 2e-4))
        result = FaultSimulator(rc_circuit, faults, settings_).run()
        telemetry = result.telemetry()
        assert telemetry["faultgen_candidates"] == 10
        assert telemetry["faultgen_collapsed"] == 3
        assert telemetry["faultgen_sampled"] == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestGenerateCLI:
    def test_generate_writes_a_campaign_ready_list(
            self, tmp_path, capsys, vco_layout_pair):
        circuit, layout = vco_layout_pair
        layout_path = tmp_path / "vco.layout"
        netlist_path = tmp_path / "vco.cir"
        out_path = tmp_path / "generated.lift"
        layout_path.write_text(layout_dumps(layout), encoding="utf-8")
        netlist_path.write_text(write_netlist(circuit), encoding="utf-8")
        status = main(["generate", str(layout_path),
                       "--netlist", str(netlist_path),
                       "--out", str(out_path),
                       "--sample", "20", "--seed", "9"])
        assert status == 0
        output = capsys.readouterr().out
        assert "candidate" in output
        generated = FaultList.load(str(out_path))
        assert int(generated.metadata[META_SAMPLED]) == 20
        assert str(generated.metadata[META_DRAWS])


# ---------------------------------------------------------------------------
# Lint: weight meta lines
# ---------------------------------------------------------------------------

class TestUnknownMetaLint:
    def _lint(self, text, circuit):
        faults = FaultList.loads(text)
        return faults, lint_fault_list(circuit, faults)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "-1"])
    def test_impossible_weight_stays_unbound_and_warns(self, rc_circuit,
                                                       value):
        faults = FaultList.from_faults(
            [BridgingFault(1, net_a="in", net_b="out", probability=1e-6)])
        faults.metadata["weight.1"] = value
        loaded, report = self._lint(faults.dumps(), rc_circuit)
        assert loaded[0].weight is None
        assert loaded.metadata["weight.1"] == value
        assert loaded.dumps() == faults.dumps()
        (warning,) = [d for d in report if d.code == "unknown-meta"]
        assert f"value {value!r} is not a number in [0, inf)" in warning.message

    def test_orphan_and_malformed_weight_metas_warn(self, rc_circuit):
        faults = FaultList.from_faults(
            [BridgingFault(1, net_a="in", net_b="out", probability=1e-6)])
        faults.metadata["weight.99"] = "1e-06"
        faults.metadata["weight.abc"] = "1e-06"
        faults.metadata["weight.1"] = "notanumber"
        loaded, report = self._lint(faults.dumps(), rc_circuit)
        codes = [d for d in report if d.code == "unknown-meta"]
        details = " ".join(d.message for d in codes)
        assert len(codes) == 3
        assert "no fault has id 99" in details
        assert "is not a fault id" in details
        assert "is not a number" in details
        # The offending lines survive the round trip byte-faithfully
        # instead of being silently dropped.
        assert loaded.dumps() == faults.dumps()

    def test_bound_weights_do_not_warn(self, rc_circuit):
        faults = FaultList.from_faults(
            [BridgingFault(1, net_a="in", net_b="out", probability=1e-6,
                           weight=2e-6)])
        _, report = self._lint(faults.dumps(), rc_circuit)
        assert not [d for d in report if d.code == "unknown-meta"]
