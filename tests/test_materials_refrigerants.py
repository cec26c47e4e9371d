"""Refrigerant saturation-property correlations."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.materials import R134A, R236FA, R245FA, REFRIGERANTS
from repro.materials.refrigerants import fit_antoine
from repro.units import celsius_to_kelvin


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_antoine_fit_passes_through_anchors(refrigerant):
    for t, p_bar in refrigerant.saturation_anchors:
        assert refrigerant.saturation_pressure(t) == pytest.approx(
            p_bar * 1e5, rel=1e-6
        )


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_normal_boiling_point_recovered(refrigerant):
    # First anchor of every refrigerant is the normal boiling point.
    t_nbp = refrigerant.saturation_anchors[0][0]
    assert refrigerant.saturation_temperature(1.013e5) == pytest.approx(
        t_nbp, abs=0.05
    )


def test_r134a_saturation_at_30c_matches_published_data():
    # Published: Psat(30 degC) of R134a ~ 7.70 bar.
    p = R134A.saturation_pressure(celsius_to_kelvin(30.0))
    assert p == pytest.approx(7.70e5, rel=0.02)


def test_r245fa_saturation_at_30c_matches_published_data():
    # Published: Psat(30 degC) of R245fa ~ 1.78 bar.
    p = R245FA.saturation_pressure(celsius_to_kelvin(30.0))
    assert p == pytest.approx(1.78e5, rel=0.03)


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
@given(t=st.floats(270.0, 350.0))
def test_saturation_roundtrip(refrigerant, t):
    p = refrigerant.saturation_pressure(t)
    assert refrigerant.saturation_temperature(p) == pytest.approx(t, abs=1e-6)


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_saturation_pressure_strictly_increasing(refrigerant):
    temps = [270.0 + 2.0 * i for i in range(40)]
    pressures = [refrigerant.saturation_pressure(t) for t in temps]
    assert all(b > a for a, b in zip(pressures, pressures[1:]))


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_clausius_slope_consistent_with_finite_difference(refrigerant):
    t = 303.15
    dt = 0.01
    numeric = (
        refrigerant.saturation_pressure(t + dt)
        - refrigerant.saturation_pressure(t - dt)
    ) / (2 * dt)
    assert refrigerant.dpsat_dt(t) == pytest.approx(numeric, rel=1e-4)
    assert refrigerant.dtsat_dp(t) == pytest.approx(1.0 / numeric, rel=1e-4)


def test_latent_heat_order_of_magnitude_matches_paper():
    # Section III: "about 150 kJ/kg of R-134a".
    assert R134A.latent_heat(303.15) == pytest.approx(173e3, rel=0.05)
    assert 120e3 < R236FA.latent_heat(303.15) < 200e3


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_latent_heat_vanishes_at_critical_point(refrigerant):
    near_critical = refrigerant.critical_temperature - 0.5
    far = refrigerant.reference_temperature
    assert refrigerant.latent_heat(near_critical) < 0.2 * refrigerant.latent_heat(far)


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_vapour_density_below_liquid_density(refrigerant):
    t = 303.15
    assert 0.0 < refrigerant.vapour_density(t) < refrigerant.liquid_density


def test_reduced_pressure_in_valid_range_for_cooper():
    pr = R245FA.reduced_pressure(303.15)
    assert 0.01 < pr < 0.5


def test_fit_antoine_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_antoine(((300.0, 1.0), (290.0, 2.0), (310.0, 3.0)))
    with pytest.raises(ValueError):
        fit_antoine(((300.0, 1.0), (310.0, 2.0)))
    with pytest.raises(ValueError, match="no Antoine fit"):
        fit_antoine(((300.0, 1.0), (310.0, 2.0), (320.0, 1.0)))
    # Exact points of log10(P) = 1 - 1 / (T - 305): the pole sits
    # between the first two anchors.
    pole = tuple(
        (t, 10.0 ** (1.0 - 1.0 / (t - 305.0))) for t in (300.0, 310.0, 320.0)
    )
    with pytest.raises(ValueError, match="pole"):
        fit_antoine(pole)


@pytest.mark.parametrize("refrigerant", list(REFRIGERANTS.values()))
def test_closed_form_antoine_matches_a_bracketed_root(refrigerant):
    from scipy.optimize import brentq

    (t1, p1), (t2, p2), (t3, p3) = refrigerant.saturation_anchors
    y1, y2, y3 = (math.log10(p) for p in (p1, p2, p3))

    def residual(c):
        return (y1 - y2) * (1.0 / (t3 + c) - 1.0 / (t1 + c)) - (y1 - y3) * (
            1.0 / (t2 + c) - 1.0 / (t1 + c)
        )

    root = brentq(residual, -t1 + 1.0, 300.0, xtol=1e-12)
    _, _, c = fit_antoine(refrigerant.saturation_anchors)
    assert c == pytest.approx(root, abs=1e-9)


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # The refrigerant constants are fitted at import; a root finder
    # there would load scipy.optimize for every `repro submit`.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = "import sys, repro.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_out_of_range_temperature_rejected():
    with pytest.raises(ValueError):
        R134A.saturation_pressure(R134A.critical_temperature + 1.0)
    with pytest.raises(ValueError):
        R134A.latent_heat(0.0)
