import json
import math

import pytest

import mesonosc as m


def test_default_registry_has_four_species_and_two_presets():
    reg = m.default_registry()
    assert set(reg.species) == {"K0", "B0", "Bs", "D0"}
    assert set(reg.csl_presets) == {"grw", "adler"}
    assert reg.csl_presets["adler"].gamma / reg.csl_presets["grw"].gamma == 1e8


def test_widths_are_hbar_over_lifetime():
    reg = m.default_registry()
    k0 = reg.get_species("K0")
    assert math.isclose(k0.gamma_light, m.CONSTANTS.hbar_mev_s / 8.95e-11)
    assert math.isclose(k0.rate_light(), 1.0 / 8.95e-11)
    assert math.isclose(k0.rate_heavy(), 1.0 / 5.116e-8)


def test_exact_mass_splitting_avoids_cancellation():
    reg = m.default_registry()
    k0 = reg.get_species("K0")
    # the subtraction m_heavy - m_light would only be good to ~2 digits here
    assert k0.delta_m == 3.5e-12
    assert math.isclose(k0.m_heavy, k0.m_light, rel_tol=1e-12)


def test_m_heavy_fallback_when_no_splitting_given():
    sp = m.MesonSpecies("X", 100.0, 101.0, 1e-9, 1e-9)
    assert sp.delta_m == pytest.approx(1.0)


def test_config_round_trip():
    reg = m.default_registry()
    reg2 = m.load_config(m.dump_config(reg))
    for name, sp in reg.species.items():
        sp2 = reg2.get_species(name)
        assert sp2.delta_m == sp.delta_m
        assert math.isclose(sp2.gamma_light, sp.gamma_light, rel_tol=1e-12)


def test_unknown_names_raise_config_error():
    reg = m.default_registry()
    with pytest.raises(m.ConfigError):
        reg.get_species("T0")
    with pytest.raises(m.ConfigError):
        reg.get_csl("nope")


def test_malformed_json_raises():
    with pytest.raises(m.ConfigError):
        m.load_config("{not json")


def test_missing_field_raises():
    doc = {"species": [{"name": "X", "m_light_mev": 1.0}]}
    with pytest.raises(m.ConfigError):
        m.load_config(json.dumps(doc))


def test_duplicate_species_raises():
    doc = json.loads(m.dump_config(m.default_registry()))
    doc["species"].append(doc["species"][0])
    with pytest.raises(m.ConfigError):
        m.load_config(json.dumps(doc))


def test_nonpositive_lifetime_raises():
    doc = json.loads(m.dump_config(m.default_registry()))
    doc["species"][0]["tau_light_s"] = 0.0
    with pytest.raises(m.ConfigError):
        m.load_config(json.dumps(doc))


def test_kaon_width_ratio_warning():
    with pytest.warns(UserWarning, match="width ratio"):
        m.MesonSpecies("K0", 497.611, 497.612, 1e-9, 1e-9)


def test_energy_modes():
    assert m.energy(100.0, 0.0) == 100.0
    assert m.energy(100.0, 10.0, "nonrelativistic") == pytest.approx(100.5)
    assert m.energy(100.0, 10.0, "relativistic") == pytest.approx(
        math.sqrt(100.0**2 + 10.0**2)
    )
    with pytest.raises(m.ConfigError):
        m.energy(100.0, 1.0, "ultra")
    with pytest.raises(m.ConfigError):
        m.energy(-1.0, 1.0)


def test_csl_params_validation():
    with pytest.raises(m.ConfigError):
        m.CslParams(gamma=-1.0, r_c=1e-5, m0=940.0)


def test_non_finite_csl_parameters_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(m.ConfigError):
            m.CslParams(gamma=bad, r_c=1e-5, m0=940.0)
        with pytest.raises(m.ConfigError):
            m.CslParams(gamma=1e-22, r_c=bad, m0=940.0)
