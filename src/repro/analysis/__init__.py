"""Reporting helpers, paper reference numbers, reliability metrics."""

from .report import Table, format_table, percent_change
from .paper import PAPER_CLAIMS, Claim, within_band
from .sweep import (
    JobFailure,
    SteadyCase,
    SteadySweep,
    SweepOutcome,
    fan_out,
    resilient_fan_out,
    run_simulations,
    run_simulations_resilient,
)
from ..workers import jittered_delay
from .reliability import (
    ThermalCycle,
    extract_cycles,
    coffin_manson_cycles_to_failure,
    arrhenius_acceleration,
    fatigue_damage_index,
    reliability_report,
)

__all__ = [
    "Table",
    "format_table",
    "percent_change",
    "JobFailure",
    "SteadyCase",
    "SteadySweep",
    "SweepOutcome",
    "fan_out",
    "jittered_delay",
    "resilient_fan_out",
    "run_simulations",
    "run_simulations_resilient",
    "PAPER_CLAIMS",
    "Claim",
    "within_band",
    "ThermalCycle",
    "extract_cycles",
    "coffin_manson_cycles_to_failure",
    "arrhenius_acceleration",
    "fatigue_damage_index",
    "reliability_report",
]
