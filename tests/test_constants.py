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
    # a config may give the heavy mass instead; it is converted to the
    # stored splitting once, at load
    doc = {"species": [{"name": "X", "m_light_mev": 100.0,
                        "m_heavy_mev": 101.0, "tau_light_s": 1e-10,
                        "tau_heavy_s": 1e-10}]}
    sp = m.load_config(json.dumps(doc)).get_species("X")
    assert sp.delta_m == 1.0
    assert sp.m_heavy == 101.0


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
    for doc, message in [
        ({"species": [{"name": "X", "m_light_mev": 1.0}]}, "tau_light_s"),
        ({"species": [{"name": "X", "m_light_mev": 1.0, "tau_light_s": 1e-10,
                       "tau_heavy_s": 1e-8}]}, "delta_m_mev"),
        ({"csl": [{"name": "p", "gamma_cm3_per_s": 1e-30, "r_c_cm": 1e-5}]},
         "m0_mev"),
    ]:
        with pytest.raises(m.ConfigError, match=message):
            m.load_config(json.dumps(doc))


def test_duplicate_species_raises():
    # and a duplicate CSL preset
    for section in ("species", "csl"):
        doc = json.loads(m.dump_config(m.default_registry()))
        doc[section].append(doc[section][0])
        with pytest.raises(m.ConfigError, match="duplicate"):
            m.load_config(json.dumps(doc))


def test_nonpositive_lifetime_raises():
    doc = json.loads(m.dump_config(m.default_registry()))
    doc["species"][0]["tau_light_s"] = 0.0
    with pytest.raises(m.ConfigError):
        m.load_config(json.dumps(doc))


def test_kaon_width_ratio_warning():
    with pytest.warns(UserWarning, match="width ratio"):
        m.MesonSpecies("K0", 497.611, 0.001, 1e-9, 1e-9)


def test_csl_params_validation():
    with pytest.raises(m.ConfigError):
        m.CslParams(gamma=-1.0, r_c=1e-5, m0=940.0)


def test_non_finite_csl_parameters_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(m.ConfigError):
            m.CslParams(gamma=bad, r_c=1e-5, m0=940.0)
        with pytest.raises(m.ConfigError):
            m.CslParams(gamma=1e-22, r_c=bad, m0=940.0)


# json.loads reads NaN and Infinity; every species field must reject them
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["m_light_mev", "delta_m_mev",
                                   "m_heavy_mev", "tau_light_s",
                                   "tau_heavy_s"])
def test_non_finite_species_inputs_rejected(field, bad):
    entry = {"name": "X", "m_light_mev": 100.0, "delta_m_mev": 1e-12,
             "tau_light_s": 1e-10, "tau_heavy_s": 1e-8}
    if field == "m_heavy_mev":
        del entry["delta_m_mev"]
    entry[field] = bad
    text = json.dumps({"species": [entry]})
    with pytest.raises(m.ConfigError, match="finite"):
        m.load_config(text)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_species_widths_rejected(bad):
    for widths in ((bad, 1e-12), (1e-12, bad)):
        with pytest.raises(m.ConfigError, match="finite"):
            m.MesonSpecies("X", 100.0, 1e-12, *widths)
