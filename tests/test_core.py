"""Parameters, derived timescales, configs, and the unit system."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

import sgcoarse as sg
from sgcoarse.core import UnitSystem


def test_silver_timescale_values(scales):
    assert scales.tau1 == pytest.approx(1.965176880741218e-05, rel=1e-12)
    assert scales.tau2 == pytest.approx(1.6973713607216568e-03, rel=1e-12)
    assert scales.tau3 == pytest.approx(2.2752358511326858e-07, rel=1e-12)


def test_timescales_match_defining_relations(silver, scales):
    m, f, s = silver.mass, abs(silver.force), silver.sigma
    assert scales.tau1 == pytest.approx(math.sqrt(2.0 * m * s / f), rel=1e-12)
    assert scales.tau2 == pytest.approx(m * s * s / silver.hbar, rel=1e-12)
    assert scales.tau3 == pytest.approx(scales.tau1**2 / scales.tau2, rel=1e-12)


def test_timescale_ordering(scales):
    assert scales.tau3 < scales.tau1 < scales.tau2


def test_zero_force_has_no_separation_scale():
    with pytest.raises(sg.NoSeparationError):
        sg.derive_scales(sg.PhysicalParams.silver(force=0.0))


def test_force_is_the_only_coupling_input(silver):
    with pytest.raises(TypeError):
        sg.PhysicalParams(mass=silver.mass, sigma=silver.sigma)
    with pytest.raises(ValueError, match="force_N"):
        sg.params_from_entries({"mass_kg": silver.mass, "sigma_m": silver.sigma})
    # F = -g mu_B (hbar/2) B0 has units of J^2 s/m, not N: no way in for it
    for key in ("g", "mu_B", "B0"):
        with pytest.raises(ValueError, match="unknown key"):
            sg.parse_config_text(f"mass_kg = 1.79e-25\nsigma_m = 1e-6\n{key} = 2.0")


def test_basic_parameter_validation(silver):
    with pytest.raises(ValueError):
        sg.PhysicalParams.silver(mass=-1.0)
    with pytest.raises(ValueError):
        sg.PhysicalParams.silver(sigma=0.0)
    with pytest.raises(ValueError):
        sg.PhysicalParams.silver(force=math.inf)


def test_spin_weights_must_be_normalized():
    with pytest.raises(ValueError):
        sg.PhysicalParams.silver(c_plus=1.0 + 0.0j, c_minus=1.0 + 0.0j)


@pytest.mark.parametrize("override", [
    {"mass": math.inf},
    {"mass": math.nan},
    {"sigma": math.inf},
    {"sigma": math.nan},
    {"c_plus": complex(math.nan, 0.0)},
    {"c_minus": complex(0.0, math.inf)},
], ids=["mass-inf", "mass-nan", "sigma-inf", "sigma-nan", "c_plus-nan", "c_minus-inf"])
def test_non_finite_parameters_are_rejected(override):
    # each check is a comparison that NaN fails, not one it passes
    with pytest.raises(ValueError):
        sg.PhysicalParams.silver(**override)


def test_weight_lookup(silver):
    assert silver.weight("+") == silver.c_plus
    assert silver.weight("-") == silver.c_minus
    assert abs(silver.c_plus) ** 2 + abs(silver.c_minus) ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        silver.weight("x")


def test_parse_config_text_basics():
    text = "\n".join([
        "# a comment line",
        "",
        "mass_kg = 1.79e-25",
        "force_N = 9.27e-22",
        "sigma_m = 1e-6",
    ])
    entries = sg.parse_config_text(text)
    assert entries == {"mass_kg": 1.79e-25, "force_N": 9.27e-22, "sigma_m": 1e-6}


@pytest.mark.parametrize("text", [
    "unknown_key = 1.0",
    "mass_kg 1.0",
    "mass_kg = spam",
    "mass_kg = 1.0\nmass_kg = 2.0",
])
def test_parse_config_text_rejects(text):
    with pytest.raises(ValueError):
        sg.parse_config_text(text)


def test_entries_round_trip(silver):
    entries = sg.params_to_entries(silver)
    assert sg.params_from_entries(entries) == silver


_NON_DEFAULT_FIELDS = {
    "mass": 2.0e-25,
    "force": -3.0e-22,
    "sigma": 2.5e-6,
    "c_plus": complex(0.0, 0.7071067811865476),
    "c_minus": complex(-0.7071067811865476, 0.0),
}


def test_every_init_field_round_trips_through_the_header(silver):
    # a field the header does not write could not be replayed from a file
    names = [f.name for f in dataclasses.fields(sg.PhysicalParams) if f.init]
    assert sorted(names) == sorted(_NON_DEFAULT_FIELDS)
    for name in names:
        params = dataclasses.replace(silver, **{name: _NON_DEFAULT_FIELDS[name]})
        assert getattr(params, name) != getattr(silver, name)
        assert sg.params_from_entries(sg.params_to_entries(params)) == params


def test_entries_require_the_core_keys():
    with pytest.raises(ValueError):
        sg.params_from_entries({"mass_kg": 1.79e-25, "sigma_m": 1e-6})


def test_unit_scalars(silver, units):
    assert units.length == silver.sigma
    assert units.time == pytest.approx(silver.mass * silver.sigma**2 / silver.hbar)
    assert units.momentum == pytest.approx(silver.hbar / silver.sigma)
    assert units.accel == pytest.approx(silver.sigma / units.time**2)
    assert units.amplitude == pytest.approx(silver.sigma**-0.5)
    assert units.wigner == pytest.approx(1.0 / silver.hbar)


_magnitudes = st.floats(min_value=1e-12, max_value=1e12,
                        allow_nan=False, allow_infinity=False)


@given(value=_magnitudes)
def test_unit_round_trips(value):
    units = UnitSystem.for_params(sg.PhysicalParams.silver())
    for unit in (units.length, units.time, units.momentum, units.accel):
        assert (value / unit) * unit == pytest.approx(value, rel=1e-12)
        assert (value * unit) / unit == pytest.approx(value, rel=1e-12)


@given(
    mass=st.floats(min_value=1e-27, max_value=1e-24),
    sigma=st.floats(min_value=1e-8, max_value=1e-4),
    force=st.floats(min_value=1e-24, max_value=1e-20),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
    tilt=st.floats(min_value=0.05, max_value=0.95),
)
def test_config_round_trip_generalizes(mass, sigma, force, phase, tilt):
    c_plus = math.sqrt(tilt) * complex(math.cos(phase), math.sin(phase))
    c_minus = complex(math.sqrt(1.0 - tilt), 0.0)
    params = sg.PhysicalParams(mass=mass, force=force, sigma=sigma,
                               c_plus=c_plus, c_minus=c_minus)
    assert sg.params_from_entries(sg.params_to_entries(params)) == params

