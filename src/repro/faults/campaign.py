"""Fault-campaign driver: quantify policy degradation under faults.

A campaign runs one fault-free baseline of a base
:class:`~repro.scenario.Scenario` plus one closed-loop simulation per
:class:`FaultScenario`: the base overlaid with that entry's
:class:`~repro.scenario.FaultSpec`.  The runs fan out through the
resilient sweep runner, so a scenario that crashes or diverges yields a
structured :class:`~repro.analysis.sweep.JobFailure` instead of sinking
the campaign.  Each surviving scenario is reported as deltas against
the baseline: peak temperature, time-over-threshold (the paper's
hot-spot metric as seconds) and system energy.

The whole campaign is a pure function of JSON-serialisable specs, so
it can hit the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..analysis.report import Table
from ..analysis.sweep import JobFailure, run_simulations_resilient
from ..core.simulator import SimulationResult
from ..obs.trace import get_tracer
from ..scenario.runner import build_faults
from ..scenario.spec import FaultSpec, Scenario

_BASELINE_KEY = "__baseline__"


@dataclass(frozen=True)
class FaultScenario:
    """One named :class:`~repro.scenario.FaultSpec` overlay to campaign
    over."""

    name: str
    faults: FaultSpec

    def __post_init__(self) -> None:
        if self.name == _BASELINE_KEY:
            raise ValueError(f"{_BASELINE_KEY!r} is reserved")


def _time_over_threshold_s(result: SimulationResult) -> float:
    """Seconds with at least one core over the threshold."""
    return result.hotspot_percent_any / 100.0 * result.duration


@dataclass
class ScenarioOutcome:
    """One scenario's result (or structured failure) vs the baseline."""

    name: str
    faults: str
    result: Optional[SimulationResult] = None
    failure: Optional[JobFailure] = None
    peak_delta_c: Optional[float] = None
    energy_delta_j: Optional[float] = None
    time_over_threshold_s: Optional[float] = None
    time_over_threshold_delta_s: Optional[float] = None
    dryout_margin_delta: Optional[float] = None
    """Dry-out margin lost vs the baseline (two-phase stacks only)."""

    @property
    def completed(self) -> bool:
        return self.result is not None


@dataclass
class FaultCampaignReport:
    """Outcome of a full fault campaign."""

    policy: str
    workload: str
    baseline: SimulationResult
    outcomes: List[ScenarioOutcome]

    @property
    def failures(self) -> List[JobFailure]:
        """Structured records of the scenarios that did not complete."""
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def complete(self) -> bool:
        return not self.failures

    def table(self) -> Table:
        """Render the campaign as a report table."""
        table = Table(
            f"Fault campaign — {self.policy} on '{self.workload}' "
            f"(baseline peak {self.baseline.peak_temperature_c:.1f} degC, "
            f"{_time_over_threshold_s(self.baseline):.1f} s over threshold)",
            [
                "Scenario",
                "Faults",
                "Peak [degC]",
                "dPeak [K]",
                "Hot [s]",
                "dEnergy [J]",
                "dMargin",
                "Status",
            ],
        )
        for outcome in self.outcomes:
            if outcome.result is not None:
                margin = (
                    "-"
                    if outcome.dryout_margin_delta is None
                    else f"{outcome.dryout_margin_delta:+.3f}"
                )
                table.add_row(
                    outcome.name,
                    outcome.faults,
                    f"{outcome.result.peak_temperature_c:.1f}",
                    f"{outcome.peak_delta_c:+.2f}",
                    f"{outcome.time_over_threshold_s:.1f}",
                    f"{outcome.energy_delta_j:+.0f}",
                    margin,
                    "ok",
                )
            else:
                assert outcome.failure is not None
                table.add_row(
                    outcome.name,
                    outcome.faults,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    f"FAILED ({outcome.failure.phase}: "
                    f"{outcome.failure.error_type})",
                )
        return table


def run_fault_campaign(
    base: Scenario,
    scenarios: Sequence[FaultScenario],
    *,
    processes: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    checkpoint_path: Optional[Path] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> FaultCampaignReport:
    """Run the baseline + one run per scenario; report degradation deltas.

    Each run is ``base`` with its :class:`~repro.scenario.FaultSpec`
    (none for the baseline), so ``cache_dir`` can serve repeated runs
    from the on-disk result cache.  The fan-out is resilient: failed
    scenarios appear in the report with their :class:`JobFailure` while
    the rest complete.  A baseline failure is fatal — without it no
    delta means anything — and re-raises the underlying error summary.
    """
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in {names}")
    jobs = [replace(base, faults=None, label=_BASELINE_KEY)] + [
        replace(base, faults=scenario.faults, label=scenario.name)
        for scenario in scenarios
    ]
    with get_tracer().span(
        "faults.campaign", scenarios=len(scenarios), jobs=len(jobs)
    ):
        outcome = run_simulations_resilient(
            jobs,
            processes,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            checkpoint_path=checkpoint_path,
            cache_dir=cache_dir,
        )
    results = outcome.result_map()
    baseline = results.get(_BASELINE_KEY)
    if baseline is None:
        failure = next(
            f for f in outcome.failures if f.key == _BASELINE_KEY
        )
        raise RuntimeError(
            f"the fault-free baseline failed "
            f"({failure.phase}: {failure.error_type}: {failure.message}); "
            f"no degradation delta can be reported"
        )
    failures = {f.key: f for f in outcome.failures}
    baseline_hot_s = _time_over_threshold_s(baseline)
    outcomes: List[ScenarioOutcome] = []
    for scenario in scenarios:
        result = results.get(scenario.name)
        faults = build_faults(scenario.faults).describe()
        if result is not None:
            hot_s = _time_over_threshold_s(result)
            margin_delta = None
            if (
                result.dryout_margin is not None
                and baseline.dryout_margin is not None
            ):
                margin_delta = (
                    result.dryout_margin - baseline.dryout_margin
                )
            outcomes.append(
                ScenarioOutcome(
                    name=scenario.name,
                    faults=faults,
                    result=result,
                    peak_delta_c=result.peak_temperature_c
                    - baseline.peak_temperature_c,
                    energy_delta_j=result.total_energy_j
                    - baseline.total_energy_j,
                    time_over_threshold_s=hot_s,
                    time_over_threshold_delta_s=hot_s - baseline_hot_s,
                    dryout_margin_delta=margin_delta,
                )
            )
        else:
            outcomes.append(
                ScenarioOutcome(
                    name=scenario.name,
                    faults=faults,
                    failure=failures[scenario.name],
                )
            )
    return FaultCampaignReport(
        policy=baseline.policy,
        workload=baseline.workload,
        baseline=baseline,
        outcomes=outcomes,
    )
