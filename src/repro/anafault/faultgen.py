"""Defect-driven fault generation: layout -> weighted fault lists.

The paper's headline loop — layout in, defect-weighted coverage out — in
three stages, each usable on its own:

1. **Generation** (:class:`FaultGenerator`): every geometric failure
   opportunity of a :class:`~repro.layout.layout.Layout` becomes a
   *candidate* fault carrying a failure-probability **weight**.  The
   sites, their analytic critical areas and their electrical effects come
   from GLRFM's own enumerator
   (:func:`~repro.lift.extraction.failure_sites`), so a generated fault is
   byte-identical to the extracted one for the same defect; only
   irregular (diagonal) bridge pairs are weighted differently, with a
   :class:`~repro.defects.SpotDefectSampler` Monte-Carlo area.
2. **Collapsing** (:meth:`FaultGenerator.collapse`): candidates are
   partitioned into equivalence classes by
   :meth:`~repro.lift.faults.Fault.signature` (the one fault identity,
   also behind ``FaultList.merge_equivalent`` and the ``equivalent-faults``
   lint rule) — same injected element, topologically equivalent site.
   One representative per class survives, with the class weight
   aggregated and the multiplicity recorded; every collapsed-away
   candidate would have produced the identical faulty netlist, hence the
   identical verdict.
3. **Importance sampling** (:func:`sample_faults`,
   :func:`estimate_coverage`): a seeded weight-proportional sampler draws
   faults with replacement; simulating only the drawn faults yields an
   unbiased :class:`CoverageEstimate` of the *weighted* coverage with a
   Wilson-score confidence interval, so large fault universes need not be
   simulated exhaustively.

The one-call entry is :func:`generate_fault_list`, which the ``python -m
repro.anafault generate`` CLI subcommand wraps; see ``docs/faultgen.md``.
Its two settings (:class:`FaultGenOptions`) are the ones that CLI exposes;
the supply nets are :data:`repro.spice.netlist.SUPPLY_NETS` and every seed
defaults to :data:`SEED`.
"""

from __future__ import annotations

import copy as _copy
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..defects import (
    DefectSizeDistribution,
    DefectStatistics,
    SpotDefectSampler,
    failure_probability,
)
from ..errors import FaultError
from ..extract.lvs import LVSReport, compare
from ..extract.netlist import ExtractionResult
from ..layout.layout import Layout
from ..lift.extraction import AnchorMap, FaultExtractionReport, failure_sites
from ..lift.faultlist import FaultList
from ..lift.faults import Fault
from ..spice import Circuit

#: Seed of the Monte-Carlo fallback sampler, and the default seed of the
#: importance sampler.
SEED = 1995
#: Metadata keys a generated fault list carries (campaign telemetry picks
#: them up; see ``CampaignResult.telemetry``).
META_CANDIDATES = "faultgen_candidates"
META_COLLAPSED = "faultgen_collapsed"
META_SAMPLED = "faultgen_sampled"
META_DRAWS = "faultgen_draws"
META_UNIVERSE = "faultgen_universe"
META_UNIVERSE_WEIGHT = "faultgen_universe_weight"
META_SAMPLE_SEED = "faultgen_sample_seed"

#: ``FaultCandidate.source`` values.
SOURCE_ANALYTIC = "analytic"
SOURCE_MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class FaultGenOptions:
    """Tuning knobs of the defect-driven generator."""

    #: Drop collapsed faults whose aggregated weight falls below this.
    min_weight: float = 1e-9
    #: Monte-Carlo draws per irregular (diagonal) bridge pair; 0 skips
    #: irregular geometry entirely.
    monte_carlo_samples: int = 256


@dataclass(frozen=True)
class FaultCandidate:
    """One weighted per-site candidate fault (pre-collapse)."""

    #: Fault template carrying the electrical identity (``fault_id`` 0 and
    #: ``probability`` 0; collapse representatives fill them in).
    fault: Fault
    #: Failure probability of this one site.
    weight: float
    #: Layer / failure mechanism the weight was computed for.
    layer: str
    #: Site provenance, e.g. ``"metal1@(12.0,3.5) spacing=1.0um"``.
    site: str
    #: ``"analytic"`` or ``"monte-carlo"``.
    source: str = SOURCE_ANALYTIC


@dataclass
class CollapsedClass:
    """One equivalence class of candidates (same injected circuit)."""

    #: Campaign-ready representative: class weight on ``probability`` and
    #: ``weight``, member sites in ``origins``.
    representative: Fault
    members: tuple[FaultCandidate, ...]

    @property
    def weight(self) -> float:
        """Aggregated failure probability of every member site."""
        return float(sum(member.weight for member in self.members))

    @property
    def multiplicity(self) -> int:
        """How many geometric sites collapsed into this class."""
        return len(self.members)


@dataclass
class CollapseReport:
    """How much the collapsing stage shrank the candidate set."""

    candidates: int = 0
    classes: int = 0

    @property
    def reduction(self) -> float:
        """Fraction of candidates removed (0.0 for an empty input)."""
        if self.candidates == 0:
            return 0.0
        return 1.0 - self.classes / self.candidates


class FaultGenerator:
    """Enumerate, weight and collapse layout-realistic faults.

    ``schematic`` selects the target circuit the fault records speak
    about: with a schematic (plus its ``lvs`` report, computed when not
    given), device opens are expressed in schematic device names exactly
    like GLRFM; without one the target is the extracted circuit itself.
    """

    def __init__(self, layout: Layout, extraction: ExtractionResult,
                 schematic: Circuit | None = None,
                 lvs: LVSReport | None = None,
                 statistics: DefectStatistics | None = None,
                 distribution: DefectSizeDistribution | None = None,
                 options: FaultGenOptions | None = None) -> None:
        self.layout = layout
        self.extraction = extraction
        self.statistics = statistics or DefectStatistics.table_1()
        self.distribution = distribution or DefectSizeDistribution()
        self.options = options or FaultGenOptions()
        if schematic is not None:
            self.circuit: Circuit = schematic
            self.lvs: LVSReport | None = (
                lvs if lvs is not None else compare(extraction.circuit,
                                                    schematic))
            device_map: dict[str, str] | None = self.lvs.device_map
        else:
            self.circuit = extraction.circuit
            self.lvs = lvs
            device_map = None
        self.anchor_map = AnchorMap(layout, extraction, self.circuit,
                                    device_map=device_map)
        self.report = FaultExtractionReport()
        self.report.messages.extend(self.anchor_map.messages)
        self._sampler = SpotDefectSampler(layout, extraction.connectivity,
                                          self.statistics, self.distribution,
                                          seed=SEED)

    # ------------------------------------------------------------------
    # Generation: one weighted candidate per geometric failure site
    # ------------------------------------------------------------------
    def generate(self) -> list[FaultCandidate]:
        """All per-site candidates (bridges, wire opens, cut opens)."""
        candidates: list[FaultCandidate] = []
        for site in failure_sites(self.anchor_map, self.statistics,
                                  self.distribution, self.report):
            if site.fault is None:
                continue
            weight = site.probability
            source = SOURCE_ANALYTIC
            if site.irregular_pair is not None:
                # Irregular (diagonal) geometry: the parallel-wire
                # expression does not apply; fall back to the spot
                # sampler's Monte-Carlo classification.
                if self.options.monte_carlo_samples <= 0:
                    continue
                area = self._sampler.monte_carlo_bridge_area(
                    *site.irregular_pair,
                    samples=self.options.monte_carlo_samples)
                weight = failure_probability(area, site.density)
                source = SOURCE_MONTE_CARLO
            if weight <= 0.0:
                continue
            candidates.append(FaultCandidate(
                site.fault, weight, site.layer, site.site, source))
        self.report.candidates = len(candidates)
        return candidates

    # ------------------------------------------------------------------
    # Collapsing: one representative per equivalence class
    # ------------------------------------------------------------------
    def collapse(self, candidates: Sequence[FaultCandidate]
                 ) -> tuple[list[CollapsedClass], CollapseReport]:
        """Partition candidates into injector-equivalence classes
        (see :func:`collapse_candidates`)."""
        return collapse_candidates(candidates)


def collapse_candidates(candidates: Sequence[FaultCandidate]
                        ) -> tuple[list[CollapsedClass], CollapseReport]:
    """Partition candidates into injector-equivalence classes.

    Two candidates land in one class exactly when their
    :meth:`~repro.lift.faults.Fault.signature` matches — i.e. when
    :class:`~repro.anafault.FaultInjector` would build the identical
    faulty circuit for both (same shorted net pair, same opened
    device terminal, same split group).  The representative is a copy
    of the first member's fault with the class weight aggregated onto
    ``probability``/``weight`` and the member sites recorded as
    origins.
    """
    groups: dict[tuple, list[FaultCandidate]] = {}
    for candidate in candidates:
        groups.setdefault(candidate.fault.signature(), []).append(candidate)

    classes: list[CollapsedClass] = []
    for key in sorted(groups, key=repr):
        members = tuple(groups[key])
        representative = _copy.deepcopy(members[0].fault)
        cls = CollapsedClass(representative, members)
        representative.probability = cls.weight
        representative.weight = cls.weight
        representative.origins = [m.site for m in members[:4]]
        if cls.multiplicity > 4:
            representative.origins.append(
                f"... {cls.multiplicity - 4} more site(s)")
        classes.append(cls)
    return classes, CollapseReport(candidates=len(candidates),
                                   classes=len(classes))


# ---------------------------------------------------------------------------
# Importance sampling and the coverage estimator
# ---------------------------------------------------------------------------

def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation,
    absolute error < 1.2e-9 — no scipy dependency)."""
    if not 0.0 < p < 1.0:
        raise FaultError(f"normal quantile needs 0 < p < 1, got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                  * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
             * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4])
               * r + 1.0))


@dataclass(frozen=True)
class CoverageEstimate:
    """Point estimate plus confidence interval for weighted coverage.

    Built from an importance sample: each draw's detection indicator is
    Bernoulli with success probability equal to the weighted coverage
    (draw probability is proportional to fault weight), so the hit
    fraction is an unbiased estimator and the Wilson score interval at
    the requested ``confidence`` bounds it.
    """

    estimate: float
    lower: float
    upper: float
    confidence: float
    draws: int
    universe: int
    universe_weight: float

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.lower <= value <= self.upper

    def summary(self) -> str:
        """One-line report string."""
        return (f"weighted coverage {self.estimate:.3f} "
                f"[{self.lower:.3f}, {self.upper:.3f}] "
                f"@{self.confidence:.0%} ({self.draws} draws over "
                f"{self.universe} faults)")


@dataclass(frozen=True)
class ImportanceSample:
    """One seeded weight-proportional draw (with replacement)."""

    #: Drawn fault ids, in draw order (repeats expected).
    draws: tuple[int, ...]
    #: The *unique* drawn faults as a campaign-ready list (deep copies of
    #: the universe faults, universe ids preserved).
    fault_list: FaultList
    #: Universe the draws came from.
    universe: int
    universe_weight: float
    seed: int

    def counts(self) -> dict[int, int]:
        """Draw multiplicity per fault id."""
        multiplicity: dict[int, int] = {}
        for fault_id in self.draws:
            multiplicity[fault_id] = multiplicity.get(fault_id, 0) + 1
        return multiplicity

    def metadata(self) -> dict[str, object]:
        """Metadata entries that let :func:`estimate_from_result` rebuild
        the estimator from a campaign result alone (the entries travel
        inside the LIFT file and over the service wire protocol)."""
        draws = ",".join(f"{fault_id}:{count}" for fault_id, count
                         in sorted(self.counts().items()))
        return {META_DRAWS: draws,
                META_SAMPLED: len(self.draws),
                META_UNIVERSE: self.universe,
                META_UNIVERSE_WEIGHT: repr(float(self.universe_weight)),
                META_SAMPLE_SEED: self.seed}


class ImportanceSampler:
    """Seeded sampler drawing faults proportionally to their weight."""

    def __init__(self, faults: FaultList | Sequence[Fault],
                 seed: int = SEED) -> None:
        self.faults: list[Fault] = list(faults)
        self.seed = int(seed)
        if not self.faults:
            raise FaultError("cannot sample from an empty fault universe")
        ids = [fault.fault_id for fault in self.faults]
        if len(set(ids)) != len(ids):
            raise FaultError(
                "importance sampling needs unique fault ids (collapse or "
                "merge_equivalent the universe first)")
        weights = np.asarray([fault.effective_weight
                              for fault in self.faults], dtype=float)
        if np.any(weights < 0.0):
            raise FaultError("fault weights must be non-negative")
        total = float(weights.sum())
        if total <= 0.0:
            raise FaultError("the fault universe has zero total weight; "
                             "nothing to sample proportionally")
        self._probabilities = weights / total
        self.total_weight = total

    def sample(self, count: int, name: str | None = None) -> ImportanceSample:
        """Draw ``count`` faults with replacement, weight-proportionally.

        The same seed and universe always produce the same draws (one
        fresh ``numpy`` generator per call), so a sampled campaign is
        reproducible end to end.
        """
        if count <= 0:
            raise FaultError("the sample size must be positive")
        rng = np.random.default_rng(self.seed)
        chosen = rng.choice(len(self.faults), size=count,
                            p=self._probabilities)
        draws = tuple(self.faults[index].fault_id for index in chosen)
        unique_ids = sorted(set(draws))
        by_id = {fault.fault_id: fault for fault in self.faults}
        sampled = FaultList.from_faults(
            [_copy.deepcopy(by_id[fault_id]) for fault_id in unique_ids],
            name=name or "importance sample")
        sample = ImportanceSample(draws=draws, fault_list=sampled,
                                  universe=len(self.faults),
                                  universe_weight=self.total_weight,
                                  seed=self.seed)
        sampled.metadata.update(sample.metadata())
        return sample


def sample_faults(faults: FaultList | Sequence[Fault], count: int,
                  seed: int = SEED,
                  name: str | None = None) -> ImportanceSample:
    """Convenience wrapper: one seeded weight-proportional sample."""
    return ImportanceSampler(faults, seed=seed).sample(count, name=name)


def estimate_coverage(draws: ImportanceSample | Sequence[int],
                      detected: Iterable[int],
                      confidence: float = 0.95) -> CoverageEstimate:
    """Weighted-coverage estimate from an importance sample.

    ``draws`` is the sample (or the raw drawn-id sequence) and
    ``detected`` the fault ids a campaign detected.  Each draw is a
    Bernoulli trial whose success probability equals the weighted
    coverage of the universe, so the hit fraction estimates it without
    bias; the interval is the Wilson score interval at ``confidence``.
    """
    if isinstance(draws, ImportanceSample):
        universe = draws.universe
        universe_weight = draws.universe_weight
        drawn: Sequence[int] = draws.draws
    else:
        universe = 0
        universe_weight = 0.0
        drawn = list(draws)
    if not drawn:
        raise FaultError("cannot estimate coverage from zero draws")
    if not 0.0 < confidence < 1.0:
        raise FaultError(f"confidence must be in (0, 1), got {confidence}")
    detected_ids = set(detected)
    n = len(drawn)
    hits = sum(1 for fault_id in drawn if fault_id in detected_ids)
    p_hat = hits / n
    z = _normal_quantile(0.5 + confidence / 2.0)
    denominator = 1.0 + z * z / n
    centre = (p_hat + z * z / (2.0 * n)) / denominator
    half = (z * math.sqrt(p_hat * (1.0 - p_hat) / n
                          + z * z / (4.0 * n * n)) / denominator)
    return CoverageEstimate(estimate=p_hat,
                            lower=max(0.0, centre - half),
                            upper=min(1.0, centre + half),
                            confidence=confidence, draws=n,
                            universe=universe,
                            universe_weight=universe_weight)


def estimate_from_result(result: object,
                         confidence: float = 0.95) -> CoverageEstimate:
    """Rebuild the coverage estimator from a sampled campaign's result.

    Reads the ``faultgen_draws``/``faultgen_universe*`` metadata a
    sampled fault list carries (:meth:`ImportanceSample.metadata`) off
    ``result.fault_list`` and combines it with ``result.detected_ids()``
    — the CLI and the CI job use this to report error bars without
    re-running the sampler.
    """
    fault_list = getattr(result, "fault_list")
    metadata = getattr(fault_list, "metadata", {})
    encoded = str(metadata.get(META_DRAWS, "") or "")
    if not encoded:
        raise FaultError(
            "the campaign's fault list carries no importance-sampling "
            f"metadata ({META_DRAWS}); generate it with sample_faults() "
            "or `python -m repro.anafault generate --sample N`")
    drawn: list[int] = []
    for item in encoded.split(","):
        fault_id, _, count = item.partition(":")
        drawn.extend([int(fault_id)] * int(count or "1"))
    estimate = estimate_coverage(drawn, getattr(result, "detected_ids")(),
                                 confidence=confidence)
    universe = int(float(str(metadata.get(META_UNIVERSE, 0) or 0)))
    weight = float(str(metadata.get(META_UNIVERSE_WEIGHT, 0.0) or 0.0))
    return CoverageEstimate(estimate=estimate.estimate,
                            lower=estimate.lower, upper=estimate.upper,
                            confidence=estimate.confidence,
                            draws=estimate.draws, universe=universe,
                            universe_weight=weight)


# ---------------------------------------------------------------------------
# The one-call pipeline
# ---------------------------------------------------------------------------

def generate_fault_list(layout: Layout, extraction: ExtractionResult,
                        schematic: Circuit | None = None,
                        lvs: LVSReport | None = None,
                        statistics: DefectStatistics | None = None,
                        distribution: DefectSizeDistribution | None = None,
                        options: FaultGenOptions | None = None,
                        collapse: bool = True,
                        sample: int = 0,
                        sample_seed: int | None = None) -> FaultList:
    """Layout in, campaign-ready weighted fault list out.

    Runs generation, collapsing (unless ``collapse=False``) and, when
    ``sample`` > 0, the importance sampler; the returned list carries the
    ``faultgen_candidates``/``faultgen_collapsed``/``faultgen_sampled``
    telemetry counters in its metadata and per-fault weights that
    round-trip through the LIFT ``* meta weight.<id>`` lines.
    """
    options = options or FaultGenOptions()
    generator = FaultGenerator(layout, extraction, schematic=schematic,
                               lvs=lvs, statistics=statistics,
                               distribution=distribution, options=options)
    candidates = generator.generate()
    if collapse:
        classes, _ = generator.collapse(candidates)
        faults = [cls.representative for cls in classes]
    else:
        faults = []
        for candidate in candidates:
            fault = _copy.deepcopy(candidate.fault)
            fault.probability = candidate.weight
            fault.weight = candidate.weight
            fault.origins = [candidate.site]
            faults.append(fault)
    kept = [fault for fault in faults
            if fault.effective_weight >= options.min_weight]
    generator.report.skipped_below_threshold = len(faults) - len(kept)
    kept.sort(key=lambda fault: (-fault.effective_weight,
                                 repr(fault.signature())))
    universe = FaultList.from_faults(
        kept, name="LIFT generated faults (faultgen)", renumber=True)
    universe.metadata.update({
        "source": "faultgen",
        "layout": layout.name,
        "reference_density": generator.statistics.reference_density,
        "min_weight": options.min_weight,
        "monte_carlo_samples": options.monte_carlo_samples,
        "seed": SEED,
        META_CANDIDATES: len(candidates),
        META_COLLAPSED: len(universe),
        META_SAMPLED: 0,
    })
    if sample <= 0:
        return universe
    seed = SEED if sample_seed is None else int(sample_seed)
    drawn = ImportanceSampler(universe, seed=seed).sample(
        sample, name=universe.name)
    sampled = drawn.fault_list
    metadata = dict(universe.metadata)
    metadata.update(drawn.metadata())
    sampled.metadata = metadata
    return sampled
