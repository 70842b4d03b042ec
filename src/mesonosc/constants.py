"""Physical constants, particle data and collapse-parameter registry.

Unit conventions used throughout the package:
    masses      MeV/c^2
    momenta     MeV/c
    energies    MeV
    widths      MeV        (rates are obtained as Gamma/hbar at use sites)
    times       s
    lengths     cm
    collapse strength gamma   cm^3 s^-1
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for malformed or physically invalid configuration input."""


@dataclass(frozen=True)
class PhysicalConstants:
    hbar_mev_s: float = 6.582119569e-22   # MeV s
    c_cm_s: float = 2.99792458e10         # cm/s

    def __post_init__(self):
        if self.hbar_mev_s <= 0 or self.c_cm_s <= 0:
            raise ConfigError("physical constants must be strictly positive")


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class MesonSpecies:
    """Mass eigenstate data of one neutral-meson system.

    ``light``/``heavy`` refer to the lower/higher mass eigenstate
    (K_S/K_L for kaons, B_L/B_H for B mesons).  Widths are stored as
    energies in MeV.
    """

    name: str
    m_light: float        # MeV/c^2
    # the mass splitting m_heavy - m_light, stored on its own: a difference
    # of the two masses loses ~2 significant digits to float cancellation
    # when the splitting is ~15 orders below the mass
    delta_m: float        # MeV/c^2
    gamma_light: float    # MeV
    gamma_heavy: float    # MeV
    label_light: str = ""
    label_heavy: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.m_light) and self.m_light > 0):
            raise ConfigError(f"{self.name}: mass must be finite and > 0")
        if not (math.isfinite(self.delta_m) and self.delta_m >= 0):
            raise ConfigError(
                f"{self.name}: mass splitting must be finite and >= 0")
        if not all(math.isfinite(g) and g >= 0
                   for g in (self.gamma_light, self.gamma_heavy)):
            raise ConfigError(f"{self.name}: widths must be finite and >= 0")
        if self.name == "K0" and self.gamma_heavy > 0:
            ratio = self.gamma_light / self.gamma_heavy
            if ratio < 100.0:
                warnings.warn(
                    f"K0 width ratio {ratio:.1f} is unexpectedly small "
                    "(short/long lifetimes usually differ by ~600x)",
                    stacklevel=2,
                )

    @property
    def m_heavy(self) -> float:
        """Mass of the heavy eigenstate in MeV/c^2."""
        return self.m_light + self.delta_m

    def rate_light(self) -> float:
        """Decay rate of the light eigenstate in s^-1."""
        return self.gamma_light / CONSTANTS.hbar_mev_s

    def rate_heavy(self) -> float:
        return self.gamma_heavy / CONSTANTS.hbar_mev_s


@dataclass(frozen=True)
class CslParams:
    """Collapse-model parameters: strength, correlation length, reference mass."""

    gamma: float   # cm^3 s^-1
    r_c: float     # cm
    m0: float      # MeV/c^2

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0
                   for x in (self.gamma, self.r_c, self.m0)):
            raise ConfigError("CSL parameters must be finite and positive")


@dataclass(frozen=True)
class Registry:
    """Immutable lookup of species and collapse-parameter presets."""

    species: dict[str, MesonSpecies] = field(default_factory=dict)
    csl_presets: dict[str, CslParams] = field(default_factory=dict)

    def get_species(self, name: str) -> MesonSpecies:
        try:
            return self.species[name]
        except KeyError:
            raise ConfigError(f"unknown species '{name}'") from None

    def get_csl(self, name: str) -> CslParams:
        try:
            return self.csl_presets[name]
        except KeyError:
            raise ConfigError(f"unknown CSL preset '{name}'") from None


# Shipped defaults.  The kaon mass splitting and lifetimes carry the values
# quoted for the CPLEAR/KLOE analyses; the B, Bs and D splittings are
# PDG-style inputs tuned so the standard collapse-rate table is reproduced.
# They are configuration, not ground truth.
DEFAULT_CONFIG = {
    "species": [
        {
            "name": "K0",
            "m_light_mev": 497.611,
            "delta_m_mev": 3.5e-12,
            "tau_light_s": 8.95e-11,
            "tau_heavy_s": 5.116e-8,
            "label_light": "K_S",
            "label_heavy": "K_L",
        },
        {
            "name": "B0",
            "m_light_mev": 5279.66,
            "delta_m_mev": 3.337e-10,
            "tau_light_s": 1.519e-12,
            "tau_heavy_s": 1.519e-12,
            "label_light": "B_L",
            "label_heavy": "B_H",
        },
        {
            "name": "Bs",
            "m_light_mev": 5366.92,
            "delta_m_mev": 1.1696e-8,
            "tau_light_s": 1.509e-12,
            "tau_heavy_s": 1.509e-12,
            "label_light": "Bs_L",
            "label_heavy": "Bs_H",
        },
        {
            "name": "D0",
            "m_light_mev": 1864.84,
            "delta_m_mev": 1.587e-11,
            "tau_light_s": 4.101e-13,
            "tau_heavy_s": 4.101e-13,
            "label_light": "D_1",
            "label_heavy": "D_2",
        },
    ],
    "csl": [
        {"name": "grw", "gamma_cm3_per_s": 1e-30, "r_c_cm": 1e-5, "m0_mev": 9.4e2},
        {"name": "adler", "gamma_cm3_per_s": 1e-22, "r_c_cm": 1e-5, "m0_mev": 9.4e2},
    ],
}


def _entries(doc: dict, section: str) -> list:
    """A section's entries: a list of objects, each with a string 'name'."""
    entries = doc.get(section, [])
    if not isinstance(entries, list):
        raise ConfigError(f"'{section}' must be a list of objects")
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise ConfigError(f"each '{section}' entry must be an object with "
                              f"a string 'name', not {entry!r}")
    return entries


def _number(entry: dict, key: str) -> float:
    try:
        return float(entry[key])
    except KeyError:
        raise ConfigError(f"missing required field '{key}'") from None
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"'{key}' must be a number, not {entry[key]!r}") from None


def load_config(text: str) -> Registry:
    """Build a Registry from a JSON document (see DEFAULT_CONFIG for schema).

    Lifetimes are converted to widths via Gamma = hbar/tau, and an
    'm_heavy_mev' to the stored splitting m_heavy_mev - m_light.  A
    document of the wrong shape (a section that is not a list of objects,
    a name that is not a string, a value that is not a number) raises
    ConfigError.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past Python's digit limit, or nesting
        # too deep for the decoder
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    species: dict[str, MesonSpecies] = {}
    for entry in _entries(doc, "species"):
        name = entry["name"]
        m_light = _number(entry, "m_light_mev")
        tau_light = _number(entry, "tau_light_s")
        tau_heavy = _number(entry, "tau_heavy_s")
        if "delta_m_mev" in entry:
            delta_m = _number(entry, "delta_m_mev")
        elif "m_heavy_mev" in entry:
            delta_m = _number(entry, "m_heavy_mev") - m_light
        else:
            raise ConfigError(
                f"{name}: provide either 'delta_m_mev' or 'm_heavy_mev'"
            )
        if name in species:
            raise ConfigError(f"duplicate species '{name}'")
        # NaN fails every comparison
        if not (0 < tau_light < math.inf and 0 < tau_heavy < math.inf):
            raise ConfigError(f"{name}: lifetimes must be finite and > 0")
        species[name] = MesonSpecies(
            name=name,
            m_light=m_light,
            delta_m=delta_m,
            gamma_light=CONSTANTS.hbar_mev_s / tau_light,
            gamma_heavy=CONSTANTS.hbar_mev_s / tau_heavy,
            label_light=entry.get("label_light", ""),
            label_heavy=entry.get("label_heavy", ""),
        )

    presets: dict[str, CslParams] = {}
    for entry in _entries(doc, "csl"):
        name = entry["name"]
        params = CslParams(
            gamma=_number(entry, "gamma_cm3_per_s"),
            r_c=_number(entry, "r_c_cm"),
            m0=_number(entry, "m0_mev"),
        )
        if name in presets:
            raise ConfigError(f"duplicate CSL preset '{name}'")
        presets[name] = params

    return Registry(species=species, csl_presets=presets)


def default_registry() -> Registry:
    return load_config(json.dumps(DEFAULT_CONFIG))


def dump_config(reg: Registry) -> str:
    """Serialize a Registry back to the JSON config schema."""
    doc = {
        "species": [
            {
                "name": sp.name,
                "m_light_mev": sp.m_light,
                "delta_m_mev": sp.delta_m,
                "tau_light_s": CONSTANTS.hbar_mev_s / sp.gamma_light,
                "tau_heavy_s": CONSTANTS.hbar_mev_s / sp.gamma_heavy,
                "label_light": sp.label_light,
                "label_heavy": sp.label_heavy,
            }
            for sp in reg.species.values()
        ],
        "csl": [
            {
                "name": name,
                "gamma_cm3_per_s": p.gamma,
                "r_c_cm": p.r_c,
                "m0_mev": p.m0,
            }
            for name, p in reg.csl_presets.items()
        ],
    }
    return json.dumps(doc, indent=2)

